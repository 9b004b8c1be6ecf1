//! In-tree deterministic parser fuzzer: `fuzz [iterations] [seed]`.
//!
//! Mutates valid corpus documents (`.fhg`, hMETIS, BLIF, the eco edit
//! script, the checkpoint format, `fpart serve` protocol request
//! lines) with seeded byte- and token-level
//! havoc, then feeds every parser the result — twice, once under the
//! default [`ParseLimits`] and once under hostile-tight limits so the
//! limit-enforcement paths get exercised too. An edit script that still
//! parses is also applied to a small circuit. Any panic is a bug: the
//! contract of the parsers and of `apply_script` is *typed errors only*
//! on arbitrary input. On
//! panic the seed, iteration, parser, and offending document are
//! printed so the case replays exactly (`fuzz 1 <seed+iteration>`
//! deterministically regenerates it).
//!
//! No external fuzzing deps: the workspace RNG drives everything, so a
//! bounded run rides in `scripts/ci.sh` on every commit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fpart_core::server::protocol;
use fpart_core::Checkpoint;
use fpart_hypergraph::gen::{window_circuit, WindowConfig};
use fpart_hypergraph::rng::StdRng;
use fpart_hypergraph::{apply_script, blif, hmetis, io, EditScript, Hypergraph, ParseLimits};

/// Hostile-tight limits: small enough that mutated documents routinely
/// trip every cap, covering the rejection paths as well as the happy
/// ones.
fn tight_limits() -> ParseLimits {
    ParseLimits { max_nodes: 64, max_nets: 64, max_pins: 256, max_name_len: 16, max_line_len: 128 }
}

/// One corpus document per grammar the workspace parses.
fn corpus() -> Vec<(&'static str, String)> {
    let g = window_circuit(&WindowConfig::new("fuzz", 24, 4), 7);
    let mut fhg = Vec::new();
    io::write_netlist(&mut fhg, &g).expect("in-memory write");
    let mut hgr = Vec::new();
    hmetis::write_hmetis(&mut hgr, &g).expect("in-memory write");
    let blif = "\
.model fuzz\n.inputs a b c\n.outputs y z\n.names a b t0\n11 1\n\
.names t0 c y\n10 1\n.latch y z re clk 0\n.end\n";
    // Every op kind, naming nodes and nets of `g`, so the unmutated
    // script applies and the `apply_script` target reaches the written
    // edited graph, not only the error paths.
    let edits = "\
{\"op\": \"add_node\", \"name\": \"n_new\", \"size\": 2}\n\
{\"op\": \"add_net\", \"name\": \"w_new\", \"pins\": [\"n_new\", \"x0\"]}\n\
{\"op\": \"resize_node\", \"name\": \"x1\", \"size\": 3}\n\
{\"op\": \"connect_pin\", \"net\": \"e1\", \"node\": \"n_new\"}\n\
{\"op\": \"disconnect_pin\", \"net\": \"w_new\", \"node\": \"x0\"}\n\
{\"op\": \"remove_net\", \"name\": \"e0\"}\n\
{\"op\": \"remove_node\", \"name\": \"x2\"}\n";
    let script = EditScript::parse(edits).expect("the corpus edit script parses");
    apply_script(&g, &script).expect("the corpus edit script applies to the fuzz circuit");
    let checkpoint = format!(
        "#%fpart-checkpoint v{}\nfingerprint 123456789\nrestarts 2\ncompleted 1\n\
         restart 0 complete\nstats 2 1 1 17 3 9 40\nblocks 2\nblock 12 3 2 1\nblock 12 4 1 1\n\
         assignment 4 0 1 1 0\ncounters 3 5 9 2\nend\n",
        fpart_core::SCHEMA_VERSION
    );
    let protocol = "\
{\"id\": \"1\", \"cmd\": \"load\", \"session\": \"s\", \"path\": \"a.fhg\", \"device\": \"XC3020\", \"delta\": 0.9}\n\
{\"id\": 2, \"cmd\": \"partition\", \"session\": \"s\", \"restarts\": 4, \"threads\": 2, \"seed\": 7, \
\"deadline_ms\": 100, \"max_passes\": 8, \"method\": \"multilevel\", \"progress\": true, \"assignment\": true}\n\
{\"id\": \"3\", \"cmd\": \"eco\", \"session\": \"s\", \"edits\": \"{\\\"op\\\": \\\"remove_node\\\", \\\"name\\\": \\\"n0\\\"}\"}\n\
{\"id\": \"4\", \"cmd\": \"query\"}\n{\"id\": \"5\", \"cmd\": \"cancel\", \"target\": \"2\"}\n\
{\"id\": \"6\", \"cmd\": \"shutdown\"}\n";
    vec![
        ("fhg", String::from_utf8(fhg).expect("ascii")),
        ("hgr", String::from_utf8(hgr).expect("ascii")),
        ("blif", blif.to_owned()),
        ("edits", edits.to_owned()),
        ("checkpoint", checkpoint),
        ("protocol", protocol.to_owned()),
    ]
}

/// Tokens the mutator splices in: format keywords, huge counts (the
/// pre-allocation attack), negatives, floats, and non-ASCII bytes.
const SPICE: &[&str] = &[
    "99999999999999999999",
    "4294967296",
    "18446744073709551615",
    "-1",
    "0",
    "1e308",
    "NaN",
    ".names",
    ".end",
    "net",
    "node",
    "terminal",
    "restart",
    "assignment",
    "counters",
    "end",
    "\u{fffd}\u{30c6}",
    "{\"op\":",
    "{\"id\":",
    "\"cmd\"",
    "\\u0022",
];

/// Applies 1–8 seeded mutations to `base`.
fn mutate(rng: &mut StdRng, base: &str) -> String {
    let mut text = base.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=8u32) {
        if text.is_empty() {
            text.extend_from_slice(b"x 1 2");
        }
        match rng.gen_range(0..7u32) {
            // Flip a byte.
            0 => {
                let at = rng.gen_range(0..text.len());
                text[at] ^= 1 << rng.gen_range(0..8u32);
            }
            // Truncate anywhere (torn-file shape).
            1 => {
                let at = rng.gen_range(0..=text.len());
                text.truncate(at);
            }
            // Duplicate a random slice.
            2 => {
                let a = rng.gen_range(0..text.len());
                let b = rng.gen_range(a..text.len().min(a + 200));
                let slice = text[a..=b].to_vec();
                let at = rng.gen_range(0..=text.len());
                text.splice(at..at, slice);
            }
            // Splice in a hostile token.
            3 => {
                let token = SPICE[rng.gen_range(0..SPICE.len())];
                let at = rng.gen_range(0..=text.len());
                text.splice(at..at, token.bytes());
            }
            // Overlong line / name.
            4 => {
                let at = rng.gen_range(0..=text.len());
                let run = vec![b'a'; rng.gen_range(1..400usize)];
                text.splice(at..at, run);
            }
            // Delete a random slice.
            5 => {
                let a = rng.gen_range(0..text.len());
                let b = rng.gen_range(a..text.len().min(a + 100));
                text.drain(a..=b);
            }
            // Swap two random lines.
            _ => {
                let mut s = String::from_utf8_lossy(&text).into_owned();
                let mut lines: Vec<&str> = s.lines().collect();
                if lines.len() >= 2 {
                    let a = rng.gen_range(0..lines.len());
                    let b = rng.gen_range(0..lines.len());
                    lines.swap(a, b);
                    s = lines.join("\n");
                }
                text = s.into_bytes();
            }
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

/// Runs every parser over `text` under `limits`; returns the name of
/// the first parser that panicked, if any. Parse *errors* are the
/// expected outcome and ignored. `base` is the edit-application target:
/// a mutated script that still parses is applied to it, and
/// `apply_script` must answer with a typed error or an edited graph,
/// never a panic.
fn run_parsers(text: &str, limits: &ParseLimits, base: &Hypergraph) -> Option<&'static str> {
    let cases: [(&'static str, &dyn Fn()); 7] = [
        ("parse_netlist_limited", &|| drop(io::parse_netlist_limited(text, limits))),
        ("parse_hmetis_limited", &|| drop(hmetis::parse_hmetis_limited(text, limits))),
        ("parse_blif_limited", &|| drop(blif::parse_blif_limited(text, limits))),
        ("EditScript::parse_limited", &|| drop(EditScript::parse_limited(text, limits))),
        ("Checkpoint::parse", &|| drop(Checkpoint::parse(text))),
        // The server parses one request per line; feed it each mutated
        // line the way `serve` would see them.
        ("protocol::parse_request", &|| {
            for line in text.lines() {
                drop(protocol::parse_request(line));
            }
        }),
        ("apply_script", &|| {
            if let Ok(script) = EditScript::parse_limited(text, limits) {
                drop(apply_script(base, &script));
            }
        }),
    ];
    for (name, run) in cases {
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            return Some(name);
        }
    }
    None
}

fn main() {
    let mut args = std::env::args().skip(1);
    let iterations: u64 = args.next().map_or(1000, |v| v.parse().expect("iterations: integer"));
    let seed: u64 = args.next().map_or(0xF0CC_5EED, |v| v.parse().expect("seed: integer"));
    let corpus = corpus();
    let base_graph = window_circuit(&WindowConfig::new("fuzz", 24, 4), 7);
    let tight = tight_limits();
    let defaults = ParseLimits::default();

    // Parser panics land on stderr by default; silence them while
    // fuzzing (a failure reprints everything needed to replay).
    std::panic::set_hook(Box::new(|_| {}));
    for i in 0..iterations {
        // Derive the iteration stream from seed+i so `fuzz 1 <seed+i>`
        // replays a failure exactly, independent of iteration count.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i));
        let (kind, base) = &corpus[rng.gen_range(0..corpus.len())];
        let mutated = mutate(&mut rng, base);
        let limits = if rng.gen_bool(0.5) { &tight } else { &defaults };
        if let Some(parser) = run_parsers(&mutated, limits, &base_graph) {
            let _ = std::panic::take_hook();
            eprintln!(
                "fuzz: PANIC in {parser} (corpus {kind}, seed {seed}, iteration {i}; \
                 replay with `fuzz 1 {}`)\n--- input ({} bytes) ---\n{mutated}\n--- end ---",
                seed.wrapping_add(i),
                mutated.len()
            );
            std::process::exit(1);
        }
    }
    let _ = std::panic::take_hook();
    println!("fuzz: {iterations} iterations x 7 targets, seed {seed}: no panics");
}

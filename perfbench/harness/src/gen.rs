//! Seeded workload inputs: netlists, the batch run list, and the
//! served ECO request stream.
//!
//! Every byte written is a function of `(workload, seed, rounds)`, so
//! one seed always reproduces the same inputs and another seed changes
//! them. The program under test only ever sees these files.

use std::fmt::Write as _;
use std::path::Path;

use fpart_hypergraph::gen::{find_profile, rent_circuit, synthesize_mcnc_with_salt};
use fpart_hypergraph::gen::{RentConfig, Technology};
use fpart_hypergraph::Hypergraph;

/// The ten MCNC profiles of the paper's Table 1.
pub const MCNC_CIRCUITS: [&str; 10] =
    ["c3540", "c5315", "c6288", "c7552", "s5378", "s9234", "s13207", "s15850", "s38417", "s38584"];

/// The XC3000 devices Table 1 partitions every circuit onto.
pub const MCNC_DEVICES: [&str; 3] = ["XC3020", "XC3042", "XC3090"];

/// Session constraints of `serve-eco`.
pub const SERVE_S_MAX: u64 = 400;
/// See [`SERVE_S_MAX`].
pub const SERVE_T_MAX: usize = 120;

/// `eco` requests between two partition rounds of `serve-eco`.
pub const ECOS_PER_CYCLE: usize = 25;
/// Cells replaced by one `eco` request.
pub const CELLS_PER_ECO: usize = 10;
/// Memo-hit repeats closing each partition round of `serve-eco`.
pub const REPEATS_PER_CYCLE: usize = 3;

/// Writes the inputs of `workload` into `dir` and its `manifest.json`.
///
/// `rounds` sizes the workload: samples of every Table 1 profile
/// (`mcnc-flat`), circuits (`widek-40k`), or request cycles
/// (`serve-eco`). Sample `r` of seed `s` uses generator seed `64 s + r`.
pub fn generate(workload: &str, seed: u64, rounds: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let sample = |r: u64| seed.wrapping_mul(64).wrapping_add(r);
    let manifest = match workload {
        "mcnc-flat" => {
            let mut runs = Vec::new();
            for r in 0..rounds {
                for name in MCNC_CIRCUITS {
                    let profile = find_profile(name).expect("Table 1 circuit has a profile");
                    let graph = synthesize_mcnc_with_salt(profile, Technology::Xc3000, sample(r));
                    let file = format!("{name}-{r}.fhg");
                    write_netlist(dir, &file, &graph)?;
                    for device in MCNC_DEVICES {
                        runs.push(format!(
                            "{{\"netlist\": \"{file}\", \"device\": \"{device}\", \"multilevel\": false}}"
                        ));
                    }
                }
            }
            batch_manifest(workload, seed, &runs)
        }
        "widek-40k" => {
            let mut runs = Vec::new();
            for r in 0..rounds {
                let graph = rent_circuit(&RentConfig::new("rent40k", 40_000, 1_200), sample(r));
                let file = format!("rent40k-{r}.fhg");
                write_netlist(dir, &file, &graph)?;
                runs.push(format!(
                    "{{\"netlist\": \"{file}\", \"device\": \"XC3064\", \"multilevel\": true}}"
                ));
            }
            batch_manifest(workload, seed, &runs)
        }
        "serve-eco" => {
            let graph = rent_circuit(&RentConfig::new("rent20k", 20_000, 600), sample(0));
            write_netlist(dir, "rent20k.fhg", &graph)?;
            let limits = (SERVE_S_MAX, SERVE_T_MAX);
            let requests = serve_requests(&graph, "rent20k.fhg", limits, seed, rounds);
            std::fs::write(dir.join("requests.jsonl"), requests)
                .map_err(|e| format!("cannot write requests: {e}"))?;
            format!(
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"netlist\": \"rent20k.fhg\", \
                 \"s_max\": {SERVE_S_MAX}, \"t_max\": {SERVE_T_MAX}, \
                 \"requests\": \"requests.jsonl\"}}\n"
            )
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    std::fs::write(dir.join("manifest.json"), manifest)
        .map_err(|e| format!("cannot write manifest: {e}"))
}

fn batch_manifest(workload: &str, seed: u64, runs: &[String]) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"runs\": [\n  {}\n]}}\n",
        runs.join(",\n  ")
    )
}

pub fn write_netlist(dir: &Path, file: &str, graph: &Hypergraph) -> Result<(), String> {
    let mut bytes = Vec::new();
    fpart_hypergraph::io::write_netlist(&mut bytes, graph).expect("writing to memory");
    std::fs::write(dir.join(file), bytes).map_err(|e| format!("cannot write {file}: {e}"))
}

/// SplitMix64: the benchmark's own small seeded generator, so the
/// request stream does not depend on the program's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The closed-loop request stream of `serve-eco`: `load`, an initial
/// `partition`, then `cycles` rounds of [`ECOS_PER_CYCLE`] `eco`
/// requests followed by a cold, a reseeded and [`REPEATS_PER_CYCLE`]
/// repeated `partition` requests (the repeats hit the solution memo).
///
/// Each `eco` replaces [`CELLS_PER_ECO`] live cells by fresh cells of
/// the same size on the same nets (`add_node`, `connect_pin`,
/// `remove_node`), so the design keeps its size over the whole run.
/// Request ids carry the request class before the dash.
pub fn serve_requests(
    graph: &Hypergraph,
    netlist: &str,
    (s_max, t_max): (u64, usize),
    seed: u64,
    cycles: u64,
) -> String {
    let mut rng = SplitMix(seed ^ 0x5E57_EC00);
    // Live cell per original slot: name, size, nets (replacement keeps
    // size and nets, only the name changes).
    let mut names: Vec<String> = graph.node_ids().map(|v| graph.node_name(v).to_owned()).collect();
    let sizes: Vec<u32> = graph.node_ids().map(|v| graph.node_size(v)).collect();
    let nets: Vec<Vec<String>> = graph
        .node_ids()
        .map(|v| graph.nets(v).iter().map(|&e| graph.net_name(e).to_owned()).collect())
        .collect();

    let mut out = String::new();
    let session = "\"session\": \"eco\"";
    let run = "\"threads\": 1, \"assignment\": true";
    let _ = writeln!(
        out,
        "{{\"id\": \"load-0\", \"cmd\": \"load\", {session}, \"path\": \"{netlist}\", \
         \"s_max\": {s_max}, \"t_max\": {t_max}}}"
    );
    let _ = writeln!(
        out,
        "{{\"id\": \"init-0\", \"cmd\": \"partition\", {session}, \"seed\": 1, {run}}}"
    );
    let mut eco = 0u64;
    for cycle in 0..cycles {
        for _ in 0..ECOS_PER_CYCLE {
            let mut picked: Vec<usize> = Vec::with_capacity(CELLS_PER_ECO);
            while picked.len() < CELLS_PER_ECO {
                let slot = rng.below(names.len());
                if !picked.contains(&slot) {
                    picked.push(slot);
                }
            }
            let mut script = String::new();
            for (j, &slot) in picked.iter().enumerate() {
                let fresh = format!("eco{eco}_{j}");
                let _ = writeln!(
                    script,
                    "{{\"op\": \"add_node\", \"name\": \"{fresh}\", \"size\": {}}}",
                    sizes[slot]
                );
                for net in &nets[slot] {
                    let _ = writeln!(
                        script,
                        "{{\"op\": \"connect_pin\", \"net\": \"{net}\", \"node\": \"{fresh}\"}}"
                    );
                }
                let _ =
                    writeln!(script, "{{\"op\": \"remove_node\", \"name\": \"{}\"}}", names[slot]);
                names[slot] = fresh;
            }
            let _ = writeln!(
                out,
                "{{\"id\": \"eco-{eco}\", \"cmd\": \"eco\", {session}, \"edits\": {}, {run}}}",
                json_string(&script)
            );
            eco += 1;
        }
        let cold = 100 + 2 * cycle;
        let _ = writeln!(
            out,
            "{{\"id\": \"cold-{cycle}\", \"cmd\": \"partition\", {session}, \"seed\": {cold}, {run}}}"
        );
        let _ = writeln!(
            out,
            "{{\"id\": \"reseed-{cycle}\", \"cmd\": \"partition\", {session}, \"seed\": {}, {run}}}",
            cold + 1
        );
        for r in 0..REPEATS_PER_CYCLE {
            let _ = writeln!(
                out,
                "{{\"id\": \"repeat-{cycle}.{r}\", \"cmd\": \"partition\", {session}, \"seed\": {cold}, {run}}}"
            );
        }
    }
    out
}

/// Quotes `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

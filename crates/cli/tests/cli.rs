//! End-to-end tests of the `fpart` binary.

use std::path::PathBuf;
use std::process::Command;

fn fpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpart"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpart_cli_test_{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_prints_usage() {
    let out = fpart().arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("partition"));
}

#[test]
fn no_command_fails_with_usage() {
    let out = fpart().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn devices_lists_catalog() {
    let out = fpart().arg("devices").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("XC3020"));
    assert!(text.contains("XC2064"));
}

#[test]
fn devices_rejects_arguments() {
    let out = fpart().args(["devices", "XC3020"]).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("takes no arguments"), "{err}");
    assert!(err.contains("XC3020"), "{err}");

    let out = fpart().args(["devices", "--bogus"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
}

#[test]
fn gen_stats_partition_convert_pipeline() {
    let dir = temp_dir("pipeline");
    let netlist = dir.join("circuit.fhg");
    let hgr = dir.join("circuit.hgr");
    let assignment = dir.join("assignment.txt");

    // gen
    let out = fpart()
        .args(["gen", "rent", "--nodes", "200", "--terminals", "24", "--seed", "7", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // stats
    let out = fpart().arg("stats").arg(&netlist).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes:"), "{text}");
    assert!(text.contains("200"));

    // partition with a named device
    let out = fpart()
        .args(["partition"])
        .arg(&netlist)
        .args(["--device", "XC3020", "--output"])
        .arg(&assignment)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("devices"), "{text}");
    assert!(text.contains("feasible: true"), "{text}");
    let written = std::fs::read_to_string(&assignment).expect("assignment file");
    assert_eq!(written.lines().count(), 200);

    // convert to hMETIS
    let out = fpart().arg("convert").arg(&netlist).arg(&hgr).output().expect("runs");
    assert!(out.status.success());
    let hgr_text = std::fs::read_to_string(&hgr).expect("hgr file");
    assert!(hgr_text.lines().any(|l| l.split_whitespace().count() >= 2));
}

#[test]
fn partition_with_custom_device_and_methods() {
    let dir = temp_dir("methods");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "clustered", "--clusters", "3", "--cluster-size", "15", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    for method in ["fpart", "kway", "flow", "naive", "multilevel", "direct"] {
        let out = fpart()
            .arg("partition")
            .arg(&netlist)
            .args(["--s-max", "20", "--t-max", "100", "--method", method])
            .output()
            .expect("runs");
        assert!(out.status.success(), "{method}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("devices"));
    }
}

/// `--trace` output must follow the documented, diffable column order
/// (stable snake_case improve-kind names, `SolutionKey` Display fields)
/// and be byte-identical across runs.
#[test]
fn trace_output_is_stable_and_diffable() {
    let dir = temp_dir("trace");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "rent", "--nodes", "200", "--terminals", "24", "--seed", "3", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    let run = || {
        let out = fpart()
            .arg("partition")
            .arg(&netlist)
            .args(["--device", "XC3020", "--trace"])
            .output()
            .expect("runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let first = run();
    assert_eq!(first, run(), "--trace output must be reproducible");

    assert!(first.contains("iteration 1: remainder S="), "{first}");
    assert!(first.contains("  bipartition "), "{first}");
    assert!(first.contains("  solution "), "{first}");
    // The documented improve column order: snake_case kind, block count,
    // initial -> final key, then passes/moves/restarts.
    let improve = first
        .lines()
        .find(|l| l.trim_start().starts_with("improve "))
        .unwrap_or_else(|| panic!("no improve line in:\n{first}"));
    assert!(improve.contains("improve last_pair blocks=2: f="), "{improve}");
    assert!(improve.contains(" -> f="), "{improve}");
    for column in [" d=", " tsum=", " ext=", " cut=", " passes=", " moves=", " restarts="] {
        assert!(improve.contains(column), "missing `{column}` in {improve}");
    }
}

/// Extracts every integer value of `"<key>": <n>` in a JSON text, in
/// order of appearance. Span records carry their own per-span counter
/// snapshots which would shadow the registry totals, so `"spans": [...]`
/// arrays are skipped (span records nest no arrays, so the first `]`
/// closes one).
fn scrape_counter(json: &str, key: &str) -> Vec<u64> {
    let mut stripped = String::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"spans\": [") {
        stripped.push_str(&rest[..at]);
        let close = rest[at..].find(']').expect("span array closes");
        rest = &rest[at + close + 1..];
    }
    stripped.push_str(rest);
    let needle = format!("\"{key}\": ");
    stripped
        .match_indices(&needle)
        .map(|(at, _)| {
            let digits: String =
                stripped[at + needle.len()..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("integer counter value")
        })
        .collect()
}

/// `--metrics` totals must equal the per-restart sums, and `--trace-json`
/// must emit one parseable JSON object per line.
#[test]
fn metrics_and_trace_json_outputs() {
    let dir = temp_dir("metrics");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "rent", "--nodes", "220", "--terminals", "24", "--seed", "9", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    // Multi-restart metrics: totals aggregate the per-restart registries.
    let metrics_file = dir.join("metrics.json");
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--restarts", "3", "--threads", "2", "--metrics"])
        .arg(&metrics_file)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&metrics_file).expect("metrics file");
    assert!(
        json.contains(&format!("\"schema_version\": {}", fpart_core::SCHEMA_VERSION)),
        "{json}"
    );
    assert!(json.contains("\"restarts\": 3"), "{json}");
    assert!(json.contains("\"completion\": \"complete\""), "{json}");
    assert!(json.contains("\"failed_restarts\": []"), "{json}");
    assert!(json.contains("\"per_restart\": ["), "{json}");
    assert!(json.contains("\"quality\": {"), "{json}");
    for key in ["passes", "moves_applied", "key_evaluations", "improve_calls", "runs"] {
        let values = scrape_counter(&json, key);
        assert_eq!(values.len(), 4, "totals + 3 restarts for {key}: {json}");
        assert_eq!(
            values[0],
            values[1..].iter().sum::<u64>(),
            "totals must equal per-restart sums for {key}"
        );
    }
    assert_eq!(scrape_counter(&json, "runs")[0], 3);
    assert!(scrape_counter(&json, "passes")[0] > 0, "a real run executes passes");

    // Single-run metrics + JSONL trace together.
    let jsonl_file = dir.join("trace.jsonl");
    let single_metrics = dir.join("metrics_single.json");
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--metrics"])
        .arg(&single_metrics)
        .arg("--trace-json")
        .arg(&jsonl_file)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&jsonl_file).expect("trace file");
    assert!(jsonl.lines().count() > 3, "{jsonl}");
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"event\": \""), "{line}");
    }
    assert!(jsonl.contains("\"event\": \"iteration_start\""));
    assert!(jsonl.contains("\"event\": \"improve\""));
    assert!(jsonl.contains("\"initial_key\": {\"feasible_blocks\": "));
    let json = std::fs::read_to_string(&single_metrics).expect("metrics file");
    assert_eq!(scrape_counter(&json, "runs"), vec![1, 1], "totals + one restart");

    // Traces are per-run: combining them with multiple restarts is an
    // explicit error, not a silent no-op.
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--restarts", "2", "--trace-json"])
        .arg(dir.join("never.jsonl"))
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--restarts 1"));
}

#[test]
fn partition_rejects_bad_inputs() {
    let out = fpart()
        .args(["partition", "/nonexistent.fhg", "--device", "XC3020"])
        .output()
        .expect("runs");
    assert!(!out.status.success());

    let dir = temp_dir("bad");
    let netlist = dir.join("c.fhg");
    std::fs::write(&netlist, "node a 1\nnet n a\n").unwrap();
    // no device given
    let out = fpart().arg("partition").arg(&netlist).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--device"));
    // unknown device
    let out =
        fpart().arg("partition").arg(&netlist).args(["--device", "XC9999"]).output().expect("runs");
    assert!(!out.status.success());
    // unknown method
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--s-max", "5", "--t-max", "5", "--method", "magic"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn verify_accepts_partition_output_and_rejects_tampering() {
    let dir = temp_dir("verify");
    let netlist = dir.join("c.fhg");
    let assignment = dir.join("a.txt");
    let out = fpart()
        .args(["gen", "rent", "--nodes", "150", "--terminals", "16", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--output"])
        .arg(&assignment)
        .output()
        .expect("runs");
    assert!(out.status.success());

    // Verifies clean…
    let out = fpart()
        .arg("verify")
        .arg(&netlist)
        .arg(&assignment)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("VALID"));

    // …and flags a tampered assignment (everything onto block 0).
    let text = std::fs::read_to_string(&assignment).unwrap();
    let tampered: String = text
        .lines()
        .map(|l| {
            let name = l.split_whitespace().next().unwrap();
            format!("{name} 0\n")
        })
        .collect();
    std::fs::write(&assignment, tampered).unwrap();
    let out = fpart()
        .arg("verify")
        .arg(&netlist)
        .arg(&assignment)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("violation"));
}

/// Block ids at or past the node count are typed, line-numbered input
/// errors (exit 2) — not an allocation abort, and not a bogus "no
/// assignment" for the `u32::MAX` sentinel.
#[test]
fn verify_rejects_out_of_range_block_ids() {
    let dir = temp_dir("verify_range");
    let netlist = dir.join("c.fhg");
    let assignment = dir.join("a.txt");
    let out = fpart()
        .args(["gen", "rent", "--nodes", "60", "--terminals", "8", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--output"])
        .arg(&assignment)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&assignment).unwrap();

    for block in ["4000000000", "4294967295"] {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let name = lines[0].split_whitespace().next().unwrap().to_owned();
        lines[0] = format!("{name} {block}");
        std::fs::write(&assignment, lines.join("\n") + "\n").unwrap();
        let out = fpart()
            .arg("verify")
            .arg(&netlist)
            .arg(&assignment)
            .args(["--device", "XC3020"])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("line 1: block") && stderr.contains("out of range"), "{stderr}");
    }
}

#[test]
fn blif_input_is_accepted() {
    let dir = temp_dir("blif");
    let blif = dir.join("adder.blif");
    std::fs::write(&blif, ".model adder\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
        .unwrap();
    let out = fpart().arg("stats").arg(&blif).output().expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("terminals:"), "{text}");
}

#[test]
fn gen_mcnc_circuit() {
    let dir = temp_dir("mcnc");
    let netlist = dir.join("c3540.fhg");
    let out = fpart()
        .args(["gen", "mcnc", "--circuit", "c3540", "--tech", "xc3000", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("283 nodes"), "{text}");
    assert!(text.contains("72 terminals"), "{text}");
}

#[test]
fn multilevel_flag_with_restarts_metrics_and_floor() {
    let dir = temp_dir("multilevel");
    let netlist = dir.join("c.fhg");
    let metrics = dir.join("metrics.json");
    let out = fpart()
        .args(["gen", "rent", "--nodes", "600", "--terminals", "48", "--seed", "5", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--multilevel", "--coarsen-floor", "64"])
        .args(["--restarts", "2", "--threads", "2", "--metrics"])
        .arg(&metrics)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("multilevel:"), "{text}");

    let json = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(json.contains("\"coarsen_levels\""), "{json}");
    assert!(json.contains("\"boundary_refinements\""), "{json}");
    assert!(json.contains("\"restarts\": 2"), "{json}");
}

#[test]
fn multilevel_flag_conflicts_are_usage_errors() {
    let dir = temp_dir("multilevel_err");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "window", "--nodes", "80", "--terminals", "12", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    // --coarsen-floor without --multilevel
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--coarsen-floor", "64"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--coarsen-floor"));

    // --multilevel with a non-engine method
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--multilevel", "--method", "kway"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));

    // --trace is per-pass and not available in the V-cycle
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--multilevel", "--trace"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn multilevel_deadline_reports_completion() {
    let dir = temp_dir("multilevel_deadline");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "rent", "--nodes", "900", "--terminals", "64", "--seed", "7", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--multilevel", "--deadline-ms", "0"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("completion: deadline_expired"), "{text}");
}

#[test]
fn write_assignment_round_trips_through_verify() {
    let dir = temp_dir("versioned_assignment");
    let netlist = dir.join("c.fhg");
    let assignment = dir.join("p.json");
    let out = fpart()
        .args(["gen", "window", "--nodes", "200", "--terminals", "20", "--seed", "3", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    // partition --write-assignment emits the versioned header...
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--write-assignment"])
        .arg(&assignment)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&assignment).expect("assignment written");
    let header = text.lines().next().expect("has a header");
    assert!(header.starts_with("#%fpart-assignment v1 blocks "), "header: {header}");

    // ...and verify reads it back and accepts the partition.
    let out = fpart()
        .arg("verify")
        .arg(&netlist)
        .arg(&assignment)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("VALID"));

    // The multilevel mode writes the same format.
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--multilevel", "--write-assignment"])
        .arg(&assignment)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = fpart()
        .arg("verify")
        .arg(&netlist)
        .arg(&assignment)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // A corrupted header is an input error (exit 2).
    std::fs::write(&assignment, "#%fpart-assignment v99 blocks 1\n").expect("write");
    let out = fpart()
        .arg("verify")
        .arg(&netlist)
        .arg(&assignment)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported assignment format"));
}

#[test]
fn eco_repairs_an_edited_netlist() {
    let dir = temp_dir("eco");
    let netlist = dir.join("c.fhg");
    let assignment = dir.join("p.json");
    let edits = dir.join("edits.jsonl");
    let repaired = dir.join("repaired.json");
    let metrics = dir.join("metrics.json");
    let out = fpart()
        .args(["gen", "window", "--nodes", "300", "--terminals", "24", "--seed", "9", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--write-assignment"])
        .arg(&assignment)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // A tiny edit: drop one cell, add a connected replacement. Node
    // names of the window generator are x<i>.
    std::fs::write(
        &edits,
        "{\"op\": \"remove_node\", \"name\": \"x7\"}\n\
         {\"op\": \"add_node\", \"name\": \"spin_a\", \"size\": 1}\n\
         {\"op\": \"add_net\", \"name\": \"spin_n\", \"pins\": [\"spin_a\", \"x8\"]}\n",
    )
    .expect("edits written");

    let out = fpart()
        .arg("eco")
        .arg(&netlist)
        .arg("--assignment")
        .arg(&assignment)
        .arg("--edits")
        .arg(&edits)
        .args(["--device", "XC3020", "--write-assignment"])
        .arg(&repaired)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("eco:"), "{text}");
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(metrics_text.contains("\"eco_edits_applied\": 3"), "{metrics_text}");
    assert!(
        metrics_text.contains(&format!("\"schema_version\": {}", fpart_core::SCHEMA_VERSION)),
        "{metrics_text}"
    );

    // The repaired assignment verifies against the *edited* netlist —
    // which the original netlist file no longer is, so verify must
    // reject it there (the repaired file names a node the old netlist
    // does not have).
    let out = fpart()
        .arg("verify")
        .arg(&netlist)
        .arg(&repaired)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));

    // A dangling edit is an input error with the script line.
    std::fs::write(&edits, "{\"op\": \"remove_node\", \"name\": \"nope\"}\n").expect("write");
    let out = fpart()
        .arg("eco")
        .arg(&netlist)
        .arg("--assignment")
        .arg(&assignment)
        .arg("--edits")
        .arg(&edits)
        .args(["--device", "XC3020"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 1: reference to unknown node"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--metrics -` and `--trace-json -` write their documents to stdout
/// instead of a file.
#[test]
fn metrics_and_trace_json_accept_stdout() {
    let dir = temp_dir("stdout_dash");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "window", "--nodes", "150", "--terminals", "16", "--seed", "3", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    // --metrics -: the JSON document lands on stdout alongside the
    // normal result summary.
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--metrics", "-"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("\"schema_version\": {}", fpart_core::SCHEMA_VERSION)),
        "{stdout}"
    );
    assert!(stdout.contains("\"totals\": {"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("metrics written to stdout"));

    // --trace-json -: one JSON event object per line on stdout.
    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--trace-json", "-"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"event\": \"iteration_start\""), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("events written to stdout"));

    // Each `-` flag emits a different document; two of them on one
    // stdout stream would interleave into something unparseable, so the
    // combination is a usage error.
    for flags in [
        ["--metrics", "-", "--trace-json", "-"],
        ["--metrics", "-", "--trace-chrome", "-"],
        ["--trace-json", "-", "--trace-chrome", "-"],
    ] {
        let out = fpart()
            .arg("partition")
            .arg(&netlist)
            .args(["--device", "XC3020"])
            .args(flags)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("may write to stdout"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The span profile of a `--metrics` document: `(kind, parent, level,
/// count)` per record of the totals, in document order.
fn span_list(metrics: &std::path::Path) -> Vec<(String, Option<String>, u64, u64)> {
    let text = std::fs::read_to_string(metrics).expect("metrics written");
    let doc = fpart_core::Json::parse(&text).expect("metrics parse");
    let spans = doc.get("totals").and_then(|t| t.get("spans")).and_then(fpart_core::Json::as_array);
    spans
        .expect("totals carry spans")
        .iter()
        .map(|r| {
            let field = |key: &str| r.get(key).expect("span field");
            (
                field("kind").as_str().expect("kind").to_owned(),
                field("parent").as_str().map(str::to_owned),
                field("level").as_u64().expect("level"),
                field("count").as_u64().expect("count"),
            )
        })
        .collect()
}

/// `--progress` on its own still reports live pass counts: the
/// heartbeat reads the engine's metrics registry, which must be enabled
/// even when no `--metrics`/`--trace-chrome` output was requested. And
/// `--progress` never changes what `--metrics` records: the span
/// profile (root `restart` span included) matches the plain run's.
#[test]
fn progress_alone_reports_real_pass_counts() {
    let dir = temp_dir("progress_passes");
    let netlist = dir.join("c.fhg");
    let out = fpart()
        .args(["gen", "window", "--nodes", "600", "--terminals", "24", "--seed", "11", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    for extra in [&[][..], &["--multilevel", "--coarsen-floor", "64"]] {
        let out = fpart()
            .arg("partition")
            .arg(&netlist)
            .args(["--device", "XC3020", "--progress"])
            .args(extra)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        // Heartbeats fire at iteration/level boundaries, after at least
        // one FM pass has run — a line claiming `passes=0` means the
        // heartbeat read a disabled registry.
        let progress: Vec<&str> = stderr.lines().filter(|l| l.starts_with("progress ")).collect();
        assert!(!progress.is_empty(), "{stderr}");
        for line in progress {
            assert!(!line.contains(" passes=0 "), "{line}");
        }

        let mut spans = Vec::new();
        for flags in [&["--progress"][..], &[]] {
            let metrics = dir.join("metrics.json");
            let out = fpart()
                .arg("partition")
                .arg(&netlist)
                .args(["--device", "XC3020"])
                .args(extra)
                .args(flags)
                .arg("--metrics")
                .arg(&metrics)
                .output()
                .expect("runs");
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            spans.push(span_list(&metrics));
        }
        assert!(spans[1].iter().any(|s| s.0 == "restart" && s.1.is_none()), "{:?}", spans[1]);
        assert_eq!(spans[0], spans[1], "--progress changed the span profile ({extra:?})");
    }
}

/// `--trace-chrome` writes a Chrome trace-event array, `--progress`
/// streams heartbeat lines on stderr, and `fpart report` renders the
/// metrics file as a phase tree.
#[test]
fn chrome_trace_progress_and_report_pipeline() {
    let dir = temp_dir("profile");
    let netlist = dir.join("c.fhg");
    let metrics = dir.join("metrics.json");
    let chrome = dir.join("trace.chrome.json");
    let out = fpart()
        .args(["gen", "window", "--nodes", "600", "--terminals", "24", "--seed", "11", "--output"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    let out = fpart()
        .arg("partition")
        .arg(&netlist)
        .args(["--device", "XC3020", "--multilevel", "--coarsen-floor", "64", "--progress"])
        .arg("--metrics")
        .arg(&metrics)
        .arg("--trace-chrome")
        .arg(&chrome)
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("progress "), "{stderr}");

    // The chrome trace is a JSON array of complete ("ph": "X") events.
    let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
    let trimmed = trace.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{trace}");
    assert!(trace.contains("\"ph\": \"X\""), "{trace}");
    assert!(trace.contains("\"cat\": \"fpart\""), "{trace}");
    assert!(trace.contains("\"name\": \"coarsen_level\""), "{trace}");

    // fpart report renders the phase tree from the metrics document.
    let out = fpart().arg("report").arg("--metrics").arg(&metrics).output().expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phase tree"), "{text}");
    assert!(text.contains("self-time coverage"), "{text}");
    assert!(text.contains("coarsen_level"), "{text}");
    assert!(text.contains("refine_level"), "{text}");
    assert!(text.contains("hot phases"), "{text}");

    // report --metrics - reads the document from stdin.
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = fpart()
        .args(["report", "--metrics", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    let doc = std::fs::read(&metrics).expect("metrics file");
    child.stdin.take().expect("piped stdin").write_all(&doc).expect("writes stdin");
    let out = child.wait_with_output().expect("finishes");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("phase tree"));

    // A wrong schema version is an input error naming both versions.
    let stale = dir.join("stale.json");
    std::fs::write(&stale, "{\"schema_version\": 6}\n").expect("write");
    let out = fpart().arg("report").arg("--metrics").arg(&stale).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unsupported schema_version 6"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

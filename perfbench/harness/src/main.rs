//! Benchmark harness of the fpart benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench-harness gen --workload W --seed N --rounds R --dir D
//! perfbench-harness replay --workload W --dir D
//! perfbench-harness pace
//! ```
//!
//! `gen` writes a workload's seeded inputs into `D`; `replay` replays
//! them in process with every layer call timed and prints one JSON
//! document; `pace` runs the pace kernel once per stdin line.
//! `perfbench/run.py` drives them around the `fpart` binary.

mod gen;
mod pace;
mod replay;

use std::path::PathBuf;
use std::process::ExitCode;

fn option<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let seed = option(args, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            let rounds = option(args, "--rounds")?.parse().map_err(|e| format!("--rounds: {e}"))?;
            let dir = PathBuf::from(option(args, "--dir")?);
            gen::generate(option(args, "--workload")?, seed, rounds, &dir)
        }
        Some("replay") => {
            let dir = PathBuf::from(option(args, "--dir")?);
            println!("{}", replay::replay(option(args, "--workload")?, &dir)?);
            Ok(())
        }
        Some("pace") => pace::serve(),
        _ => Err("usage: perfbench-harness gen|replay|pace --workload W --dir D ...".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `fpart` — command-line front end for the FPART multi-way FPGA
//! netlist partitioner.
//!
//! ```text
//! fpart partition <netlist> --device XC3020 [--delta 0.9] [--method fpart|kway|flow|naive]
//!                 [--s-max N --t-max N] [--output assignment.txt] [--trace]
//! fpart stats <netlist>
//! fpart gen <kind> --nodes N --terminals T [--seed S] [--circuit NAME --tech xc3000] --output FILE
//! fpart convert <input> <output>
//! ```
//!
//! Netlist files use the `.fhg` text format, or hMETIS `.hgr` when the
//! extension is `.hgr`.

mod args;
mod commands;
mod error;
mod netlist_file;
mod report;
mod serve;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

use error::CliError;

/// Process-wide interrupt flag, set by the SIGINT/SIGTERM handler and
/// polled by long-running commands through a `fpart_core::CancelToken`.
pub(crate) static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// The signal number that set [`INTERRUPTED`] (0 when none arrived):
/// distinguishes exit 130 (SIGINT) from exit 143 (SIGTERM).
pub(crate) static LAST_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// Installs SIGINT and SIGTERM handlers that only set [`INTERRUPTED`]
/// (recording which signal in [`LAST_SIGNAL`]): the partitioner then
/// stops at the next pass/peel boundary and the CLI flushes its outputs
/// — including a final checkpoint when `--checkpoint` is active — and
/// exits 130/143 instead of dying mid-write. Uses the raw C `signal`
/// API to stay dependency-free.
#[cfg(unix)]
pub(crate) fn install_signal_handlers() {
    extern "C" fn on_signal(signum: i32) {
        LAST_SIGNAL.store(signum, Ordering::SeqCst);
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Non-Unix platforms: no handler; `--deadline-ms` still works.
#[cfg(not(unix))]
pub(crate) fn install_signal_handlers() {}

/// Whether a SIGINT/SIGTERM arrived at any point during this run. Even
/// when the best restart finished before the signal (so the winning
/// outcome's completion reads `complete`), the process must still exit
/// 130/143 so scripts can tell the search was cut short.
pub(crate) fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// The error a cancelled run maps to: exit 143 when SIGTERM caused the
/// cancellation, exit 130 otherwise (SIGINT).
pub(crate) fn signal_exit_error() -> CliError {
    if LAST_SIGNAL.load(Ordering::SeqCst) == 15 {
        CliError::Terminated
    } else {
        CliError::Interrupted
    }
}

const USAGE: &str = "\
fpart — multi-way FPGA netlist partitioning (FPART, DATE 1999)

USAGE:
  fpart partition <netlist> --device <NAME> [options]   partition onto devices
  fpart stats <netlist>                                 netlist statistics
  fpart gen <kind> [options]                            generate a synthetic netlist
  fpart convert <input> <output>                        convert between .fhg/.hgr/.blif
  fpart verify <netlist> <assignment> --device <NAME>   check an assignment file
  fpart eco <netlist> --assignment <FILE> --edits <FILE> --device <NAME>
                                                        repair a partition after edits
  fpart report --metrics <FILE|->                       render a metrics file as a
                                                        phase-time report
  fpart serve [--listen <SOCKET>] [options]             long-running partition server
                                                        (JSON-Lines over stdio or a
                                                        Unix socket)
  fpart devices                                         list the device catalog

PARTITION OPTIONS:
  --device <NAME>     device from the catalog (see `fpart devices`)
  --s-max N --t-max N custom device instead of --device
  --delta <F>         filling ratio (default 0.9)
  --method <M>        fpart (default) | kway | flow | naive | multilevel | direct
  --multilevel        n-level multilevel mode: coarsen by heavy-edge matching to
                      a size floor, FPART the coarsest graph, boundary-only FM
                      at every uncoarsening level (same as --method multilevel)
  --coarsen-floor <N> stop coarsening at this node count (default 256)
  --restarts <N>      independent FPART runs with consecutive seeds; best wins (default 1)
  --threads <N>       total worker budget, shared by parallel restarts and the
                      intra-run stages of each run (multilevel matching, net
                      projection, boundary pair refinement); the result is
                      identical for every thread count, only wall time
                      changes (default: $FPART_THREADS if set, else 1)
  --deadline-ms <N>   wall-clock budget; on expiry the best solution found
                      so far is returned with completion `deadline_expired`
  --max-passes <N>    FM pass budget per run; on exhaustion completion is
                      `degraded` (the partition is still verified output)
  --output <FILE>     write `node block` assignment lines
  --trace             print the improvement schedule while running
  --trace-json <FILE> stream driver events as JSON Lines (needs --restarts 1;
                      `-` writes to stdout)
  --trace-chrome <FILE>
                      write the span profile as a Chrome trace-event array
                      (open in Perfetto or chrome://tracing; one synthetic
                      tid per restart/worker lane; `-` writes to stdout)
  --progress          print throttled heartbeat lines (phase, passes, moves,
                      cut, budget remaining) on stderr while running
                      (needs --restarts 1)
  --metrics <FILE>    write engine counters/timings/span profile as JSON
                      (totals + per-restart registries, schema-versioned;
                      `-` writes to stdout)
  --write-assignment <FILE>
                      write the versioned assignment format
                      (`#%fpart-assignment v1 blocks <k>` header; the
                      format `fpart eco --assignment` expects)

DURABILITY OPTIONS (partition, --method fpart/multilevel):
  --checkpoint <FILE> maintain a crash-safe snapshot of completed
                      restarts (written atomically on a dedicated
                      thread; a SIGKILL never leaves a torn file)
  --checkpoint-interval-ms <N>
                      throttle checkpoint writes to one per interval
                      (default 1000; the final state always flushes)
  --resume <FILE>     restore completed restarts from a checkpoint and
                      run only the missing ones; the final result is
                      bit-identical to an uninterrupted run (the file
                      must match this run's netlist/device/config
                      fingerprint and schema version)

INPUT LIMIT OPTIONS (all netlist/edit readers; defaults in parentheses):
  --max-nodes <N>     node records (10000000)
  --max-nets <N>      net records (10000000)
  --max-pins <N>      total pins (200000000)
  --max-name-len <N>  name length in bytes (1024)
  --max-line-len <N>  line length in bytes (1048576)
                      violations are typed errors with line and column,
                      checked before any proportional allocation
  --max-memory-mb <N> estimated-byte cap for the multilevel hierarchy;
                      coarsening stops early and the run completes
                      `degraded` instead of exhausting memory

ECO OPTIONS:
  --assignment <FILE> previous assignment of the *pre-edit* netlist
                      (plain or versioned format)
  --edits <FILE>      JSON-Lines edit script (add_node, remove_node,
                      resize_node, add_net, remove_net, connect_pin,
                      disconnect_pin)
  --churn-threshold <F>
                      fall back to full repartitioning when the edit
                      touches more than this fraction of cells (default 0.15)
  plus --device/--s-max/--t-max/--delta, --restarts, --threads,
  --deadline-ms, --max-passes, --metrics, --output, --write-assignment

SERVE OPTIONS:
  --listen <SOCKET>   accept connections on a Unix domain socket instead
                      of speaking the protocol over stdio
  --threads <N>       total worker budget shared by all requests
                      (default: $FPART_THREADS if set, else 1)
  --queue <N>         per-session queued requests before `busy` (default 4)
  --heartbeat-ms <N>  progress event throttle (default 200)
  plus the input limit options; --max-line-len also bounds request lines
  Protocol: one JSON object per line with an `id` and a `cmd` of
  load | partition | eco | query | cancel | shutdown; every reply names
  its request id and is either ok/result, ok:false/error (typed code),
  or an interim queued/progress event. See DESIGN.md, Partition server.

REPORT OPTIONS:
  --metrics <FILE|->  metrics JSON written by --metrics (`-` reads stdin);
                      also accepted as a positional argument
  --trace-json <FILE> also summarize a JSON-Lines event stream
  --top <N>           rows in the hot-phase table (default 5)

GEN KINDS AND OPTIONS:
  rent | window | layered | clustered | mcnc
  --nodes N --terminals N --seed S        (rent, window, clustered, layered)
  --circuit NAME --tech xc2000|xc3000     (mcnc)
  --output <FILE>                         output netlist (.fhg or .hgr)

EXIT CODES:
  0    success
  1    runtime failure (no feasible partition, verification failed, ...)
  2    usage or input errors (bad flags, malformed netlists)
  130  interrupted by SIGINT after printing the best-so-far result
  143  terminated by SIGTERM after flushing outputs and any checkpoint
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &raw[1..];
    let result = match command {
        "partition" => commands::partition(rest),
        "stats" => commands::stats(rest),
        "gen" => commands::generate(rest),
        "convert" => commands::convert(rest),
        "verify" => commands::verify(rest),
        "eco" => commands::eco(rest),
        "report" => report::report(rest),
        "serve" => serve::serve(rest),
        "devices" => commands::devices(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => error.report(),
    }
}

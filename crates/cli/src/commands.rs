//! Implementations of the `fpart` subcommands.

use std::path::Path;

use std::io::Write as _;

use fpart_baselines::{fbb_mw_partition, first_fit_partition, kway_partition, FlowConfig};
use fpart_core::{
    search, Algorithm, CancelToken, Completion, Counter, EventSink, FanoutSink, FpartConfig,
    JsonlSink, Metrics, Observer, QualityReport, Restarts, RestartsReport, RunBudget, TraceEvent,
};
use fpart_device::{lower_bound, Device, DeviceConstraints};
use fpart_hypergraph::gen::{
    clustered_circuit, layered_circuit, rent_circuit, synthesize_mcnc, window_circuit,
    ClusteredConfig, LayeredConfig, RentConfig, Technology, WindowConfig,
};
use fpart_hypergraph::io::read_netlist_path;
use fpart_hypergraph::stats::{rent_exponent, CircuitStats};
use fpart_hypergraph::{Hypergraph, ParseLimits};

use crate::args::{Args, Spec};
use crate::error::CliError;
use crate::netlist_file;

/// `fpart partition <netlist> ...`
pub fn partition(raw: &[String]) -> Result<(), CliError> {
    let spec = Spec {
        valued: &[
            "device",
            "delta",
            "method",
            "output",
            "s-max",
            "t-max",
            "restarts",
            "threads",
            "deadline-ms",
            "max-passes",
            "metrics",
            "trace-json",
            "trace-chrome",
            "coarsen-floor",
            "write-assignment",
            "checkpoint",
            "checkpoint-interval-ms",
            "resume",
            "max-nodes",
            "max-nets",
            "max-pins",
            "max-name-len",
            "max-line-len",
            "max-memory-mb",
        ],
        switches: &["trace", "multilevel", "progress"],
    };
    let args = Args::parse(raw, spec).map_err(CliError::Usage)?;
    let input = args
        .positional(0)
        .ok_or_else(|| CliError::Usage("partition needs a netlist file".into()))?;
    let limits = resolve_limits(&args).map_err(CliError::Usage)?;
    let graph = read_netlist_path(Path::new(input), &limits).map_err(CliError::Input)?;

    let constraints = resolve_constraints(&args).map_err(CliError::Usage)?;
    let method = args.option("method").unwrap_or("fpart");
    let restarts: usize = args.option_parsed("restarts", 1).map_err(CliError::Usage)?;
    // Default from `FPART_THREADS` when set: results are bit-identical
    // at every thread count, so the environment can only change wall
    // time (CI runs its thread matrix through this).
    let threads: usize = args
        .option_parsed("threads", fpart_core::parallel::default_threads())
        .map_err(CliError::Usage)?;
    let deadline_ms: Option<u64> = args
        .option("deadline-ms")
        .map(|v| v.parse().map_err(|_| format!("option --deadline-ms: cannot parse `{v}`")))
        .transpose()
        .map_err(CliError::Usage)?;
    let max_passes: Option<u64> = args
        .option("max-passes")
        .map(|v| v.parse().map_err(|_| format!("option --max-passes: cannot parse `{v}`")))
        .transpose()
        .map_err(CliError::Usage)?;
    if restarts == 0 || threads == 0 {
        return Err(CliError::Usage("--restarts and --threads must be at least 1".into()));
    }
    // `--multilevel` selects the n-level V-cycle; it shares the FPART
    // engine, so restarts/threads/budget/metrics all apply to it too.
    let multilevel = args.switch("multilevel") || method == "multilevel";
    if args.switch("multilevel") && !(method == "fpart" || method == "multilevel") {
        return Err(CliError::Usage(format!("--multilevel conflicts with --method {method}")));
    }
    let engine_method = method == "fpart" || multilevel;
    // Only *explicit* flags conflict with non-engine methods: the
    // FPART_THREADS default is a machine-wide hint, not a request, and
    // the baselines simply have no parallel stages for it to size.
    let explicit_search = args.option("restarts").is_some() || args.option("threads").is_some();
    if (restarts > 1 || threads > 1) && explicit_search && !engine_method {
        return Err(CliError::Usage(
            "--restarts/--threads only apply to --method fpart/multilevel".into(),
        ));
    }
    if (deadline_ms.is_some() || max_passes.is_some()) && !engine_method {
        return Err(CliError::Usage(
            "--deadline-ms/--max-passes only apply to --method fpart/multilevel".into(),
        ));
    }
    if args.option("metrics").is_some() && !engine_method {
        return Err(CliError::Usage("--metrics only applies to --method fpart/multilevel".into()));
    }
    if args.option("trace-json").is_some() && (method != "fpart" || multilevel) {
        return Err(CliError::Usage("--trace-json only applies to --method fpart".into()));
    }
    if (args.option("trace-chrome").is_some() || args.switch("progress")) && !engine_method {
        return Err(CliError::Usage(
            "--trace-chrome/--progress only apply to --method fpart/multilevel".into(),
        ));
    }
    if args.switch("progress") && restarts > 1 {
        return Err(CliError::Usage(
            "--progress needs --restarts 1 (heartbeats are per-run)".into(),
        ));
    }
    // Each of these flags accepts `-` for stdout, but they emit
    // different documents (a JSONL stream, a metrics object, a Chrome
    // trace array); interleaving two of them on one stream would be
    // unparseable.
    let stdout_streams = ["metrics", "trace-json", "trace-chrome"]
        .into_iter()
        .filter(|flag| args.option(flag) == Some("-"))
        .count();
    if stdout_streams > 1 {
        return Err(CliError::Usage(
            "only one of --metrics/--trace-json/--trace-chrome may write to stdout (`-`)".into(),
        ));
    }
    if args.option("coarsen-floor").is_some() && !multilevel {
        return Err(CliError::Usage("--coarsen-floor needs --multilevel".into()));
    }
    if args.option("max-memory-mb").is_some() && !multilevel {
        return Err(CliError::Usage(
            "--max-memory-mb caps the multilevel hierarchy; it needs --multilevel".into(),
        ));
    }
    let durable = args.option("checkpoint").is_some() || args.option("resume").is_some();
    if durable && !engine_method {
        return Err(CliError::Usage(
            "--checkpoint/--resume only apply to --method fpart/multilevel".into(),
        ));
    }
    if durable
        && (args.switch("trace") || args.option("trace-json").is_some() || args.switch("progress"))
    {
        return Err(CliError::Usage(
            "--checkpoint/--resume run the restart search; they conflict with the \
             per-run --trace/--trace-json/--progress sinks"
                .into(),
        ));
    }
    if args.option("checkpoint-interval-ms").is_some() && args.option("checkpoint").is_none() {
        return Err(CliError::Usage("--checkpoint-interval-ms needs --checkpoint".into()));
    }
    let m = lower_bound(&graph, constraints);
    eprintln!(
        "{}: {} cells, {} nets, {} terminals; device {constraints}; lower bound M = {m}",
        input,
        graph.node_count(),
        graph.net_count(),
        graph.terminal_count()
    );

    // Budget: SIGINT/SIGTERM always cancel cooperatively; deadline and
    // pass caps only when requested. The handler lets the run stop at
    // the next pass/peel boundary and still flush its best result (and
    // any final checkpoint).
    crate::install_signal_handlers();
    let budget = RunBudget {
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        max_passes,
        max_moves: None,
        cancel: Some(CancelToken::from_static(&crate::INTERRUPTED)),
    };

    let started = std::time::Instant::now();
    let mut completion = Completion::Complete;
    let method = if multilevel { "multilevel" } else { method };
    let (assignment, device_count, feasible, cut) = match method {
        "fpart" | "multilevel" => {
            let report =
                run_engine(&graph, constraints, &args, restarts, threads, budget, multilevel)?;
            completion = report.completion;
            let outcome = report.outcome;
            println!("{}", QualityReport::new(&outcome, constraints));
            (outcome.assignment, outcome.device_count, outcome.feasible, outcome.cut)
        }
        "kway" => {
            let o = kway_partition(&graph, constraints)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            (o.assignment, o.device_count, o.feasible, o.cut)
        }
        "flow" => {
            let o = fbb_mw_partition(&graph, constraints, &FlowConfig::default())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            (o.assignment, o.device_count, o.feasible, o.cut)
        }
        "naive" => {
            let o = first_fit_partition(&graph, constraints);
            (o.assignment, o.device_count, o.feasible, o.cut)
        }
        "direct" => {
            let o = fpart_core::partition_direct(
                &graph,
                constraints,
                &FpartConfig::default(),
                &fpart_core::DirectConfig::default(),
            )
            .map_err(|e| CliError::Runtime(e.to_string()))?;
            (o.assignment, o.device_count, o.feasible, o.cut)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown method `{other}` (fpart|kway|flow|naive|multilevel|direct)"
            )))
        }
    };

    println!(
        "{method}: {device_count} devices (lower bound {m}), feasible: {feasible}, cut nets: {cut}, \
         completion: {completion}, {:.2?}",
        started.elapsed()
    );
    print_block_summary(&graph, &assignment, device_count, constraints);
    if device_count > 1 {
        println!("{}", fpart_core::InterconnectReport::new(&graph, &assignment, device_count));
    }

    if let Some(output) = args.option("output") {
        let mut file = fpart_core::AtomicFile::create(Path::new(output))
            .map_err(|e| CliError::Runtime(format!("cannot create {output}: {e}")))?;
        fpart_core::write_assignment(&mut file, &graph, &assignment)
            .map_err(|e| CliError::Runtime(format!("cannot write {output}: {e}")))?;
        file.commit().map_err(|e| CliError::Runtime(format!("cannot write {output}: {e}")))?;
        eprintln!("assignment written to {output}");
    }
    if let Some(path) = args.option("write-assignment") {
        write_versioned_assignment(path, &graph, &assignment, device_count)?;
    }
    if completion == Completion::Cancelled || crate::interrupted() {
        // Results (and any --output/--metrics files) are complete; the
        // distinct exit code (130 SIGINT / 143 SIGTERM) tells scripts
        // the run was cut short. The flag check matters for multi-run
        // searches: the winning restart may have finished before the
        // signal landed, so its own completion reads `complete` even
        // though later restarts were cancelled.
        return Err(crate::signal_exit_error());
    }
    Ok(())
}

/// Runs `--method fpart`, or the n-level V-cycle with `multilevel`,
/// through the one restart search with whatever the flags request:
/// `--trace` (in-memory trace, printed afterwards), `--trace-json FILE`
/// (streamed JSON Lines), `--progress` (throttled heartbeat lines on
/// stderr), `--metrics FILE` (aggregated counter/timing registry),
/// `--trace-chrome FILE` (span profile as a Chrome trace array), and
/// `--checkpoint`/`--resume`. The partition itself is bit-identical
/// whichever flags are given.
fn run_engine(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    args: &Args,
    restarts: usize,
    threads: usize,
    budget: RunBudget,
    multilevel: bool,
) -> Result<RestartsReport, CliError> {
    let metrics_path = args.option("metrics");
    let trace_json_path = args.option("trace-json");
    let chrome_path = args.option("trace-chrome");
    let progress = args.switch("progress");
    if multilevel && args.switch("trace") {
        return Err(CliError::Usage(
            "--trace/--trace-json are not available with --multilevel".into(),
        ));
    }
    if (args.switch("trace") || trace_json_path.is_some() || progress) && restarts > 1 {
        return Err(CliError::Usage(
            "--trace/--trace-json/--progress need --restarts 1 (traces are per-run)".into(),
        ));
    }
    let started = std::time::Instant::now();
    let config = FpartConfig { budget, ..FpartConfig::default() };
    let ml = if multilevel { Some(multilevel_config(args)?) } else { None };
    let algorithm = ml.as_ref().map_or(Algorithm::Flat, Algorithm::Multilevel);

    // `--resume` restores completed restarts from a checkpoint of this
    // very run (netlist, device, configuration, restart count), so a
    // snapshot of a *different* run is rejected up front; `--checkpoint`
    // streams snapshots to a writer thread (atomic temp-file + rename,
    // throttled by `--checkpoint-interval-ms`).
    let resume = match args.option("resume") {
        Some(path) => {
            let checkpoint = fpart_core::read_checkpoint(Path::new(path))
                .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            let fingerprint =
                fpart_core::fingerprint_run(graph, constraints, &config, ml.as_ref(), restarts);
            checkpoint.verify(fingerprint).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            eprintln!(
                "resume: {} of {restarts} restarts restored from {path}",
                checkpoint.completed.len()
            );
            Some(checkpoint)
        }
        None => None,
    };
    let writer = match args.option("checkpoint") {
        Some(path) => {
            let interval: u64 =
                args.option_parsed("checkpoint-interval-ms", 1000).map_err(CliError::Usage)?;
            Some(fpart_core::CheckpointWriter::spawn(
                std::path::PathBuf::from(path),
                std::time::Duration::from_millis(interval),
            ))
        }
        None => None,
    };

    let mut trace = args.switch("trace").then(Vec::new);
    let mut jsonl = trace_json_path.map(EventOut::open).transpose()?.map(JsonlSink::new);
    let mut progress_sink = progress.then_some(ProgressPrinter);
    let result = {
        let mut sinks: Vec<&mut dyn EventSink> = Vec::new();
        if let Some(sink) = trace.as_mut() {
            sinks.push(sink);
        }
        if let Some(sink) = jsonl.as_mut() {
            sinks.push(sink);
        }
        if let Some(sink) = progress_sink.as_mut() {
            sinks.push(sink);
        }
        let mut fanout = FanoutSink::new(sinks);
        // Spans ride in the metrics registry, so a chrome trace needs a
        // live registry; so does --progress, whose heartbeats report
        // the pass counter.
        let metered = metrics_path.is_some() || chrome_path.is_some() || progress;
        let metrics = if metered { Metrics::enabled() } else { Metrics::disabled() };
        let mut obs = Observer::new(metrics, Some(&mut fanout));
        if progress {
            obs.heartbeat = fpart_core::Heartbeat::every(PROGRESS_INTERVAL);
        }
        let shape =
            Restarts { count: restarts, threads, resume: resume.as_ref(), writer: writer.as_ref() };
        search(graph, constraints, &config, algorithm, &shape, &mut obs)
    };
    let mut report = result.map_err(|e| CliError::Runtime(e.to_string()))?;

    if let Some(writer) = writer {
        let path = writer.path().display().to_string();
        let writes = writer
            .finish()
            .map_err(|e| CliError::Runtime(format!("cannot write checkpoint {path}: {e}")))?;
        // The writer thread sits outside the restart fan-out; book its
        // writes on restart 0 so totals stay the per-restart sum.
        book_on_first_restart(&mut report, Counter::CheckpointsWritten, writes);
        eprintln!("checkpoint: {writes} snapshots written to {path}");
    }
    if let Some(sink) = jsonl {
        let path = trace_json_path.expect("jsonl implies a path");
        let lines = sink.lines();
        sink.into_inner()
            .finish()
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        eprintln!("trace: {lines} events written to {}", dest_name(path));
    }
    if let Some(path) = metrics_path {
        let quality = QualityReport::new(&report.outcome, constraints);
        write_metrics_file(path, restarts, threads, started.elapsed(), &report, &quality)
            .map_err(CliError::Runtime)?;
        eprintln!("metrics written to {}", dest_name(path));
    }
    if let Some(path) = chrome_path {
        write_chrome_trace(path, &report.totals)?;
    }
    if let Some(trace) = &trace {
        print_trace(trace);
    }
    Ok(report)
}

/// The n-level options of `--multilevel`: `--coarsen-floor` and
/// `--max-memory-mb` (caps the estimated bytes of the coarsening
/// hierarchy only: coarsening stops early and the run completes
/// `degraded`).
fn multilevel_config(args: &Args) -> Result<fpart_core::MultilevelConfig, CliError> {
    let coarsen_floor: usize = args.option_parsed("coarsen-floor", 256).map_err(CliError::Usage)?;
    if coarsen_floor < 2 {
        return Err(CliError::Usage("--coarsen-floor must be at least 2".into()));
    }
    let max_memory_mb: Option<u64> = args
        .option("max-memory-mb")
        .map(|v| v.parse().map_err(|_| format!("option --max-memory-mb: cannot parse `{v}`")))
        .transpose()
        .map_err(CliError::Usage)?;
    let memory = max_memory_mb.map_or_else(fpart_core::MemoryBudget::default, |mb| {
        fpart_core::MemoryBudget::capped(mb.saturating_mul(1024 * 1024))
    });
    Ok(fpart_core::MultilevelConfig {
        coarsen_floor,
        memory,
        ..fpart_core::MultilevelConfig::default()
    })
}

/// Adds `n` to `counter` on the totals and on restart 0 (counts booked
/// outside the restart fan-out keep totals the per-restart sum).
fn book_on_first_restart(report: &mut RestartsReport, counter: Counter, n: u64) {
    report.totals.add(counter, n);
    if let Some(first) = report.per_restart.first_mut() {
        first.add(counter, n);
    }
}

/// Heartbeat throttle for `--progress`: at most one line per interval.
const PROGRESS_INTERVAL: std::time::Duration = std::time::Duration::from_millis(200);

/// Display name for an output path, mapping the `-` stdout convention.
fn dest_name(path: &str) -> &str {
    if path == "-" {
        "stdout"
    } else {
        path
    }
}

/// Writer behind an event-stream path: stdout for `-`, an atomic temp
/// file otherwise — the destination appears only on [`EventOut::finish`],
/// so a crash mid-stream never leaves a torn trace file.
enum EventOut {
    /// The `-` convention: stream straight to stdout.
    Stdout(std::io::Stdout),
    /// A real path: temp file next to it, renamed into place on finish.
    File(fpart_core::AtomicFile),
}

impl EventOut {
    fn open(path: &str) -> Result<EventOut, CliError> {
        if path == "-" {
            return Ok(EventOut::Stdout(std::io::stdout()));
        }
        fpart_core::AtomicFile::create(Path::new(path))
            .map(EventOut::File)
            .map_err(|e| CliError::Runtime(format!("cannot create {path}: {e}")))
    }

    /// Completes the stream: flush for stdout, atomic commit for files.
    fn finish(mut self) -> std::io::Result<()> {
        self.flush()?;
        match self {
            EventOut::Stdout(_) => Ok(()),
            EventOut::File(file) => file.commit(),
        }
    }
}

impl std::io::Write for EventOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            EventOut::Stdout(out) => out.write(buf),
            EventOut::File(file) => file.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            EventOut::Stdout(out) => out.flush(),
            EventOut::File(file) => file.flush(),
        }
    }
}

/// Writes the merged span profile as a Chrome trace-event array
/// (load in Perfetto / `chrome://tracing`). `-` writes to stdout.
fn write_chrome_trace(path: &str, totals: &Metrics) -> Result<(), CliError> {
    let json = totals.spans().to_chrome_json();
    let events = totals.spans().events().len();
    if path == "-" {
        std::io::stdout()
            .write_all(json.as_bytes())
            .map_err(|e| CliError::Runtime(format!("cannot write stdout: {e}")))?;
    } else {
        fpart_core::write_atomic(Path::new(path), json.as_bytes())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    eprintln!("chrome trace: {events} span events written to {}", dest_name(path));
    Ok(())
}

/// Event sink for `--progress`: renders the engine's throttled heartbeat
/// events as human-readable lines on stderr and ignores every other
/// event class (those belong to `--trace`/`--trace-json`).
struct ProgressPrinter;

impl EventSink for ProgressPrinter {
    fn record_event(&mut self, event: &TraceEvent) {
        let TraceEvent::Progress {
            phase,
            level,
            passes,
            moves,
            cut,
            elapsed_ms,
            deadline_remaining_ms,
            passes_remaining,
        } = event
        else {
            return;
        };
        let mut line =
            format!("progress {} level {level}: passes={passes} moves={moves}", phase.as_str());
        if let Some(cut) = cut {
            line.push_str(&format!(" cut={cut}"));
        }
        line.push_str(&format!(" elapsed={elapsed_ms}ms"));
        if let Some(ms) = deadline_remaining_ms {
            line.push_str(&format!(" deadline_remaining={ms}ms"));
        }
        if let Some(p) = passes_remaining {
            line.push_str(&format!(" passes_remaining={p}"));
        }
        eprintln!("{line}");
    }
}

/// Writes the `--metrics` document: a single JSON object with
/// `schema_version`, the run shape (`restarts`, `threads`), the CLI's
/// wall time in `elapsed_ms` (the denominator `fpart report` uses for
/// phase percentages), the search's `completion` status, restarts lost
/// to panics under `failed_restarts`, the merged `totals` registry,
/// each restart's registry under `per_restart` (counter totals equal
/// the per-restart sums), and the winning partition's `quality` report.
/// `path` `-` writes to stdout.
fn write_metrics_file(
    path: &str,
    restarts: usize,
    threads: usize,
    elapsed: std::time::Duration,
    report: &RestartsReport,
    quality: &QualityReport,
) -> Result<(), String> {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema_version\": {}, \"restarts\": {restarts}, \"threads\": {threads}, \
         \"elapsed_ms\": {}, ",
        fpart_core::SCHEMA_VERSION,
        elapsed.as_millis()
    ));
    out.push_str(&format!(
        "\"completion\": \"{}\", \"failed_restarts\": [",
        report.completion.as_str()
    ));
    for (i, f) in report.failed.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"restart\": {}, \"message\": {}}}",
            f.restart,
            fpart_core::server::protocol::json_string(&f.message)
        ));
    }
    out.push_str(&format!("], \"totals\": {}, \"per_restart\": [", report.totals.to_json()));
    for (i, m) in report.per_restart.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&m.to_json());
    }
    out.push_str(&format!("], \"quality\": {}}}\n", quality.to_json()));
    if path == "-" {
        std::io::stdout().write_all(out.as_bytes()).map_err(|e| format!("cannot write stdout: {e}"))
    } else {
        fpart_core::write_atomic(Path::new(path), out.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Resolves the `--max-*` input limits: [`ParseLimits::default`]'s sane
/// caps, individually overridable. Every reader (netlist formats and
/// the eco edit script) enforces them with typed line/column errors
/// before allocating anything proportional to a claimed size.
pub(crate) fn resolve_limits(args: &Args) -> Result<ParseLimits, String> {
    let defaults = ParseLimits::default();
    Ok(ParseLimits {
        max_nodes: args.option_parsed("max-nodes", defaults.max_nodes)?,
        max_nets: args.option_parsed("max-nets", defaults.max_nets)?,
        max_pins: args.option_parsed("max-pins", defaults.max_pins)?,
        max_name_len: args.option_parsed("max-name-len", defaults.max_name_len)?,
        max_line_len: args.option_parsed("max-line-len", defaults.max_line_len)?,
    })
}

fn resolve_constraints(args: &Args) -> Result<DeviceConstraints, String> {
    let delta: f64 = args.option_parsed("delta", 0.9)?;
    if !(0.0..=1.0).contains(&delta) || delta == 0.0 {
        return Err("--delta must be in (0, 1]".to_owned());
    }
    if let Some(name) = args.option("device") {
        let device = Device::by_name(name)
            .ok_or_else(|| format!("unknown device `{name}` (see `fpart devices`)"))?;
        return Ok(device.constraints(delta));
    }
    match (args.option("s-max"), args.option("t-max")) {
        (Some(_), Some(_)) => Ok(DeviceConstraints::new(
            args.option_parsed("s-max", 0u64)?,
            args.option_parsed("t-max", 0usize)?,
        )),
        _ => Err("give --device NAME, or both --s-max and --t-max".to_owned()),
    }
}

fn print_block_summary(
    graph: &Hypergraph,
    assignment: &[u32],
    device_count: usize,
    constraints: DeviceConstraints,
) {
    if device_count == 0 {
        return;
    }
    let state =
        fpart_core::PartitionState::from_assignment(graph, assignment.to_vec(), device_count);
    for b in 0..device_count {
        let fits = constraints.fits(state.block_size(b), state.block_terminals(b));
        println!(
            "  block {b:3}: S={:4}/{}  T={:4}/{}  {}",
            state.block_size(b),
            constraints.s_max,
            state.block_terminals(b),
            constraints.t_max,
            if fits { "ok" } else { "VIOLATION" }
        );
    }
}

/// Renders a recorded trace, one line per event, in a **stable,
/// documented column order** so `--trace` output is diffable:
///
/// ```text
/// iteration <k>: remainder S=<size> T=<terminals>
///   bipartition <method>: peeled S=<size> T=<terminals>
///   improve <kind> blocks=<n>: <initial_key> -> <final_key> passes=<p> moves=<m> restarts=<r>
///   solution <class>: <total> blocks
/// ```
///
/// `<kind>` is the stable snake_case slot name
/// ([`fpart_core::ImproveKind::as_str`]); solution keys render via
/// [`fpart_core::SolutionKey`]'s `Display`
/// (`f=<feasible>/<total> d=<infeasibility> tsum=<terminal_sum>
/// ext=<external_balance> cut=<cut>`, floats to three decimals). Any
/// change here is a compatibility break for trace-diffing tests.
fn print_trace(trace: &[TraceEvent]) {
    for event in trace {
        match event {
            TraceEvent::IterationStart { iteration, remainder_size, remainder_terminals } => {
                eprintln!(
                    "iteration {iteration}: remainder S={remainder_size} T={remainder_terminals}"
                );
            }
            TraceEvent::Bipartition { method, peeled_size, peeled_terminals, .. } => {
                eprintln!("  bipartition {method:?}: peeled S={peeled_size} T={peeled_terminals}");
            }
            TraceEvent::Improve {
                kind,
                blocks,
                initial_key,
                final_key,
                passes,
                moves,
                restarts,
                ..
            } => {
                eprintln!(
                    "  improve {} blocks={}: {initial_key} -> {final_key} \
                     passes={passes} moves={moves} restarts={restarts}",
                    kind.as_str(),
                    blocks.len()
                );
            }
            TraceEvent::Progress { phase, level, passes, moves, cut, elapsed_ms, .. } => {
                eprintln!(
                    "  progress {} level {level}: passes={passes} moves={moves} cut={} \
                     elapsed={elapsed_ms}ms",
                    phase.as_str(),
                    cut.map_or_else(|| "-".to_owned(), |c| c.to_string())
                );
            }
            TraceEvent::Solution { class, blocks, .. } => {
                eprintln!("  solution {class:?}: {} blocks", blocks.len());
            }
        }
    }
}

/// Writes the versioned `#%fpart-assignment` format (the `fpart eco`
/// input format) to `path`.
fn write_versioned_assignment(
    path: &str,
    graph: &Hypergraph,
    assignment: &[u32],
    blocks: usize,
) -> Result<(), CliError> {
    let mut file = fpart_core::AtomicFile::create(Path::new(path))
        .map_err(|e| CliError::Runtime(format!("cannot create {path}: {e}")))?;
    fpart_core::write_assignment_versioned(&mut file, graph, assignment, blocks)
        .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    file.commit().map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    eprintln!("versioned assignment written to {path}");
    Ok(())
}

/// `fpart eco <netlist> --assignment FILE --edits FILE ...`
///
/// Applies a JSON-Lines edit script to the netlist and repairs the
/// given assignment onto the edited design: surviving cells keep their
/// block, new/orphaned cells are placed constructively, and only the
/// dirty blocks are refined. Large edits (past `--churn-threshold`)
/// fall back to a full multilevel repartition automatically.
#[allow(clippy::too_many_lines)]
pub fn eco(raw: &[String]) -> Result<(), CliError> {
    let spec = Spec {
        valued: &[
            "device",
            "delta",
            "s-max",
            "t-max",
            "assignment",
            "edits",
            "restarts",
            "threads",
            "deadline-ms",
            "max-passes",
            "metrics",
            "churn-threshold",
            "output",
            "write-assignment",
            "max-nodes",
            "max-nets",
            "max-pins",
            "max-name-len",
            "max-line-len",
        ],
        switches: &[],
    };
    let args = Args::parse(raw, spec).map_err(CliError::Usage)?;
    let input =
        args.positional(0).ok_or_else(|| CliError::Usage("eco needs a netlist file".into()))?;
    let limits = resolve_limits(&args).map_err(CliError::Usage)?;
    let graph = read_netlist_path(Path::new(input), &limits).map_err(CliError::Input)?;
    let constraints = resolve_constraints(&args).map_err(CliError::Usage)?;
    let assignment_file = args
        .option("assignment")
        .ok_or_else(|| CliError::Usage("eco needs --assignment FILE".into()))?;
    let edits_file =
        args.option("edits").ok_or_else(|| CliError::Usage("eco needs --edits FILE".into()))?;
    let restarts: usize = args.option_parsed("restarts", 1).map_err(CliError::Usage)?;
    // Default from `FPART_THREADS` when set: results are bit-identical
    // at every thread count, so the environment can only change wall
    // time (CI runs its thread matrix through this).
    let threads: usize = args
        .option_parsed("threads", fpart_core::parallel::default_threads())
        .map_err(CliError::Usage)?;
    if restarts == 0 || threads == 0 {
        return Err(CliError::Usage("--restarts and --threads must be at least 1".into()));
    }
    let deadline_ms: Option<u64> = args
        .option("deadline-ms")
        .map(|v| v.parse().map_err(|_| format!("option --deadline-ms: cannot parse `{v}`")))
        .transpose()
        .map_err(CliError::Usage)?;
    let max_passes: Option<u64> = args
        .option("max-passes")
        .map(|v| v.parse().map_err(|_| format!("option --max-passes: cannot parse `{v}`")))
        .transpose()
        .map_err(CliError::Usage)?;
    let churn_threshold: f64 =
        args.option_parsed("churn-threshold", 0.15).map_err(CliError::Usage)?;
    if !(0.0..=1.0).contains(&churn_threshold) {
        return Err(CliError::Usage("--churn-threshold must be in [0, 1]".into()));
    }

    // Previous assignment (plain or versioned) resolved against the
    // *pre-edit* netlist; the node map carries it onto the edited one.
    let file = std::fs::File::open(assignment_file)
        .map_err(|e| CliError::Input(format!("cannot read {assignment_file}: {e}")))?;
    let (previous, prev_k) = fpart_core::read_assignment(file, &graph)
        .map_err(|e| CliError::Input(format!("{assignment_file}: {e}")))?;
    let edits = std::fs::File::open(edits_file)
        .map_err(|e| CliError::Input(format!("cannot read {edits_file}: {e}")))?;
    let script = fpart_hypergraph::EditScript::read_limited(edits, &limits)
        .map_err(|e| CliError::Input(format!("{edits_file}: {e}")))?;
    let applied = fpart_hypergraph::apply_script(&graph, &script)
        .map_err(|e| CliError::Input(format!("{edits_file}: {e}")))?;
    eprintln!(
        "{input}: {} cells in {prev_k} blocks; {} edits -> {} cells (+{} -{}); device {constraints}",
        graph.node_count(),
        script.len(),
        applied.graph.node_count(),
        applied.added_nodes,
        applied.removed_nodes
    );

    crate::install_signal_handlers();
    let budget = RunBudget {
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        max_passes,
        max_moves: None,
        cancel: Some(CancelToken::from_static(&crate::INTERRUPTED)),
    };
    let config = FpartConfig { budget, ..FpartConfig::default() };
    let eco_config = fpart_core::EcoConfig { churn_threshold, ..fpart_core::EcoConfig::default() };

    let algorithm =
        Algorithm::Eco { eco: &eco_config, previous: &previous, node_map: &applied.node_map };
    let metrics_path = args.option("metrics");
    // A single repair reports whether it stayed in place and how many
    // blocks it touched from its own counters, so it always records.
    let metered = metrics_path.is_some() || restarts == 1;
    let metrics = if metered { Metrics::enabled() } else { Metrics::disabled() };
    let started = std::time::Instant::now();
    let mut report = search(
        &applied.graph,
        constraints,
        &config,
        algorithm,
        &Restarts { count: restarts, threads, ..Restarts::default() },
        &mut Observer::new(metrics, None),
    )
    .map_err(|e| CliError::Runtime(e.to_string()))?;
    if let Some(path) = metrics_path {
        // The script was applied once, before the restart fan-out.
        book_on_first_restart(&mut report, Counter::EcoEditsApplied, script.len() as u64);
        let quality = QualityReport::new(&report.outcome, constraints);
        write_metrics_file(path, restarts, threads, started.elapsed(), &report, &quality)
            .map_err(CliError::Runtime)?;
        eprintln!("metrics written to {}", dest_name(path));
    } else if restarts == 1 {
        let nodes = applied.graph.node_count();
        let carried = applied.node_map.iter().flatten().count();
        let (placed, removed) = (nodes - carried, applied.node_map.len() - carried);
        let churn = if nodes == 0 { 0.0 } else { (placed + removed) as f64 / nodes as f64 };
        let repaired = report.totals.get(Counter::EcoFallbacks) == 0;
        eprintln!(
            "eco: {} (churn {churn:.4}, carried {carried}, placed {placed}, removed {removed}, \
             dirty blocks {})",
            if repaired { "repaired in place" } else { "fell back to full repartition" },
            report.totals.get(Counter::EcoDirtyBlocks)
        );
    }
    let outcome = report.outcome;

    println!("{}", QualityReport::new(&outcome, constraints));
    println!(
        "eco: {} devices (lower bound {}), feasible: {}, cut nets: {}, completion: {}, {:.2?}",
        outcome.device_count,
        outcome.lower_bound,
        outcome.feasible,
        outcome.cut,
        report.completion,
        started.elapsed()
    );
    print_block_summary(&applied.graph, &outcome.assignment, outcome.device_count, constraints);

    if let Some(output) = args.option("output") {
        let mut file = fpart_core::AtomicFile::create(Path::new(output))
            .map_err(|e| CliError::Runtime(format!("cannot create {output}: {e}")))?;
        fpart_core::write_assignment(&mut file, &applied.graph, &outcome.assignment)
            .map_err(|e| CliError::Runtime(format!("cannot write {output}: {e}")))?;
        file.commit().map_err(|e| CliError::Runtime(format!("cannot write {output}: {e}")))?;
        eprintln!("assignment written to {output}");
    }
    if let Some(path) = args.option("write-assignment") {
        write_versioned_assignment(
            path,
            &applied.graph,
            &outcome.assignment,
            outcome.device_count,
        )?;
    }
    if report.completion == Completion::Cancelled || crate::interrupted() {
        return Err(crate::signal_exit_error());
    }
    Ok(())
}

/// `fpart stats <netlist>`
pub fn stats(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, Spec { valued: &[], switches: &[] }).map_err(CliError::Usage)?;
    let input =
        args.positional(0).ok_or_else(|| CliError::Usage("stats needs a netlist file".into()))?;
    let graph = netlist_file::read(Path::new(input)).map_err(CliError::Input)?;
    let s = CircuitStats::of(&graph);
    println!("{input}: `{}`", graph.name());
    println!("  nodes:      {:8}  (total size {})", s.nodes, s.total_size);
    println!("  nets:       {:8}  (pins {})", s.nets, s.pins);
    println!("  terminals:  {:8}", s.terminals);
    println!(
        "  net degree: mean {:.2}, max {}; node degree: mean {:.2}, max {}",
        s.mean_net_degree, s.max_net_degree, s.mean_node_degree, s.max_node_degree
    );
    println!("  terminal-net fraction: {:.3}", s.terminal_net_fraction);
    match rent_exponent(&graph) {
        Some(p) => println!("  estimated Rent exponent: {p:.3}"),
        None => println!("  estimated Rent exponent: (circuit too small)"),
    }
    Ok(())
}

/// `fpart gen <kind> ...`
pub fn generate(raw: &[String]) -> Result<(), CliError> {
    let spec = Spec {
        valued: &[
            "nodes",
            "terminals",
            "seed",
            "output",
            "circuit",
            "tech",
            "clusters",
            "cluster-size",
            "levels",
            "width",
        ],
        switches: &[],
    };
    let args = Args::parse(raw, spec).map_err(CliError::Usage)?;
    let kind = args.positional(0).ok_or_else(|| {
        CliError::Usage("gen needs a kind (rent|window|layered|clustered|mcnc)".into())
    })?;
    let output =
        args.option("output").ok_or_else(|| CliError::Usage("gen needs --output FILE".into()))?;
    let seed: u64 = args.option_parsed("seed", 1).map_err(CliError::Usage)?;
    let nodes: usize = args.option_parsed("nodes", 500).map_err(CliError::Usage)?;
    let terminals: usize = args.option_parsed("terminals", 40).map_err(CliError::Usage)?;

    let graph = match kind {
        "rent" => rent_circuit(&RentConfig::new("generated", nodes, terminals), seed),
        "window" => window_circuit(&WindowConfig::new("generated", nodes, terminals), seed),
        "layered" => {
            let levels: usize = args.option_parsed("levels", 8).map_err(CliError::Usage)?;
            let width: usize = args.option_parsed("width", 16).map_err(CliError::Usage)?;
            layered_circuit(&LayeredConfig::new("generated", levels, width), seed)
        }
        "clustered" => {
            let clusters: usize = args.option_parsed("clusters", 4).map_err(CliError::Usage)?;
            let cluster_size: usize =
                args.option_parsed("cluster-size", 25).map_err(CliError::Usage)?;
            clustered_circuit(&ClusteredConfig::new("generated", clusters, cluster_size), seed).0
        }
        "mcnc" => {
            let circuit = args
                .option("circuit")
                .ok_or_else(|| CliError::Usage("mcnc needs --circuit NAME".into()))?;
            let profile = fpart_hypergraph::gen::find_profile(circuit)
                .ok_or_else(|| CliError::Usage(format!("unknown MCNC circuit `{circuit}`")))?;
            let tech = match args.option("tech").unwrap_or("xc3000") {
                "xc2000" => Technology::Xc2000,
                "xc3000" => Technology::Xc3000,
                other => {
                    return Err(CliError::Usage(format!("unknown tech `{other}` (xc2000|xc3000)")))
                }
            };
            synthesize_mcnc(profile, tech)
        }
        other => return Err(CliError::Usage(format!("unknown generator `{other}`"))),
    };

    netlist_file::write(Path::new(output), &graph).map_err(CliError::Runtime)?;
    println!(
        "wrote {}: {} nodes, {} nets, {} terminals",
        output,
        graph.node_count(),
        graph.net_count(),
        graph.terminal_count()
    );
    Ok(())
}

/// `fpart convert <in> <out>`
pub fn convert(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, Spec { valued: &[], switches: &[] }).map_err(CliError::Usage)?;
    let input =
        args.positional(0).ok_or_else(|| CliError::Usage("convert needs an input file".into()))?;
    let output =
        args.positional(1).ok_or_else(|| CliError::Usage("convert needs an output file".into()))?;
    let graph = netlist_file::read(Path::new(input)).map_err(CliError::Input)?;
    netlist_file::write(Path::new(output), &graph).map_err(CliError::Runtime)?;
    println!("converted {input} -> {output}");
    Ok(())
}

/// `fpart verify <netlist> <assignment> ...`
pub fn verify(raw: &[String]) -> Result<(), CliError> {
    let spec = Spec { valued: &["device", "delta", "s-max", "t-max"], switches: &[] };
    let args = Args::parse(raw, spec).map_err(CliError::Usage)?;
    let netlist =
        args.positional(0).ok_or_else(|| CliError::Usage("verify needs a netlist file".into()))?;
    let assignment_file = args
        .positional(1)
        .ok_or_else(|| CliError::Usage("verify needs an assignment file".into()))?;
    let graph = netlist_file::read(Path::new(netlist)).map_err(CliError::Input)?;
    let constraints = resolve_constraints(&args).map_err(CliError::Usage)?;

    // Assignment file: `node_name block` lines (the partition command's
    // --output format).
    let file = std::fs::File::open(assignment_file)
        .map_err(|e| CliError::Input(format!("cannot read {assignment_file}: {e}")))?;
    let (assignment, k) = fpart_core::read_assignment(file, &graph)
        .map_err(|e| CliError::Input(format!("{assignment_file}: {e}")))?;

    let verification = fpart_core::verify_assignment(&graph, &assignment, k, constraints);
    println!("{k} blocks, cut {} nets; device {constraints}", verification.cut);
    if verification.is_feasible() {
        println!("VALID: every block meets the device constraints");
        Ok(())
    } else {
        for violation in &verification.violations {
            println!("violation: {violation}");
        }
        Err(CliError::Runtime(format!("{} violations found", verification.violations.len())))
    }
}

/// `fpart devices`
pub fn devices(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, Spec { valued: &[], switches: &[] }).map_err(CliError::Usage)?;
    if let Some(unexpected) = args.positional(0) {
        return Err(CliError::Usage(format!("devices takes no arguments (got `{unexpected}`)")));
    }
    println!("{:>8} {:>6} {:>6}   S_MAX at δ=0.9", "device", "CLBs", "IOBs");
    for d in Device::catalog() {
        println!("{:>8} {:>6} {:>6}   {}", d.name, d.s_ds, d.t_max, d.constraints(0.9).s_max);
    }
    Ok(())
}

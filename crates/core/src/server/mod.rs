//! Long-running partition server: parse once, partition many times.
//!
//! [`Server`] keeps named **sessions** — a parsed netlist plus its
//! device constraints, last assignment, and merged metrics — and
//! answers JSON-Lines requests ([`protocol`]) over stdio
//! ([`Server::serve`]) or a Unix socket ([`Server::serve_unix`]).
//! Warm requests skip the dominant parse cost of one-shot CLI runs,
//! which is the point: an interactive floorplanning loop can `load` a
//! netlist once and then iterate `partition` / `eco` calls against it.
//!
//! Guarantees:
//!
//! * **Determinism** — a protocol `partition` or `eco` runs the
//!   library's one restart search, [`crate::search()`], and is
//!   bit-identical to calling it with the same seed, restarts and
//!   config, at any thread count; streaming a `partition`'s progress
//!   does not perturb the search.
//! * **Typed failure** — malformed lines, unknown commands, unknown
//!   sessions, and oversized lines produce error replies, never a
//!   disconnect or a panic.
//! * **Backpressure** — each session runs one request at a time from a
//!   bounded queue; an overflowing submit is refused with a `busy`
//!   error and a parked one is acknowledged with a `queued` event.
//! * **Cooperative cancellation** — `cancel` flips the target
//!   request's [`CancelToken`]; the engine stops at the next pass/peel
//!   boundary and the reply reports how far it got (its `completion`).
//!
//! The worker budget is shared: each request's `threads` is clamped to
//! the server's total and split across restarts and intra-run stages
//! by [`crate::search()`], exactly like the CLI.

pub mod protocol;

pub use protocol::{Command, EditSource, Method, ProtocolError, RunParams, PROTOCOL_VERSION};

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fpart_device::{Device, DeviceConstraints};
use fpart_hypergraph::io::read_netlist_path;
use fpart_hypergraph::{apply_script, fingerprint_graph, EditScript, Hypergraph, ParseLimits};

use crate::budget::{CancelToken, Completion, RunBudget};
use crate::config::FpartConfig;
use crate::eco::EcoConfig;
use crate::multilevel::MultilevelConfig;
use crate::obs::{event_to_json, Counter, EventSink, Heartbeat, Metrics, Observer};
use crate::persist::write_atomic;
use crate::search::{search, Algorithm, Restarts, RestartsReport};
use crate::trace::TraceEvent;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total worker budget shared by every concurrent request
    /// (default 1; the CLI maps `--threads` here).
    pub threads: usize,
    /// Requests one session may hold queued behind the running one
    /// before submits are refused with `busy` (default 4).
    pub queue_capacity: usize,
    /// Resource limits for netlist and edit-script parsing; the
    /// protocol reader also enforces
    /// [`ParseLimits::max_line_len`] per request line.
    pub limits: ParseLimits,
    /// Throttle interval for streamed `progress` events, milliseconds
    /// (default 200).
    pub heartbeat_ms: u64,
    /// External stop flag (e.g. the CLI's signal handler): when it
    /// flips, the server shuts down as if a `shutdown` request had
    /// arrived.
    pub stop: Option<CancelToken>,
    /// Shared restart-solution memo (see [`crate::memo`]) handed to
    /// every n-level `partition` request. On by default: a repeated or
    /// reseeded request on an unchanged session replays the earlier
    /// result instead of searching again. `None` turns it off; results
    /// are bit-identical either way.
    pub memo: Option<Arc<crate::memo::MemoStore>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            queue_capacity: 4,
            limits: ParseLimits::default(),
            heartbeat_ms: 200,
            stop: None,
            memo: Some(crate::memo::MemoStore::shared()),
        }
    }
}

/// One loaded netlist with its partitioning history. No hash of the
/// graph is kept: `query` hashes it when asked, and a search hashes it
/// only when a restart can use the memo.
struct Session {
    graph: Arc<Hypergraph>,
    constraints: DeviceConstraints,
    path: String,
    /// Assignment of the most recent successful run (indexes `graph`).
    last: Option<Vec<u32>>,
    /// Block count of `last`.
    blocks: usize,
    /// Metrics merged across every request served on this session,
    /// including the `server_requests` / `server_cancelled` counters.
    totals: Metrics,
    /// Requests served (successful runs).
    requests: u64,
}

impl Session {
    /// Books one finished request: its metrics, the server counters, and
    /// the winning assignment as the session's latest.
    fn record(&mut self, report: &RestartsReport) {
        self.requests += 1;
        self.totals.merge(&report.totals);
        self.totals.bump(Counter::ServerRequests);
        if report.completion == Completion::Cancelled {
            self.totals.bump(Counter::ServerCancelled);
        }
        self.last = Some(report.outcome.assignment.clone());
        self.blocks = report.outcome.blocks.len();
    }
}

/// A sessionful partition server. See the [module docs](self).
pub struct Server {
    config: ServerConfig,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    inflight: Mutex<HashMap<String, CancelToken>>,
    shutdown: AtomicBool,
}

/// A registered partition or eco run: [`Server::handle`] executes it
/// inline, [`Server::serve`] parks it in its session's queue.
struct Job {
    id: String,
    name: String,
    session: Arc<Mutex<Session>>,
    kind: JobKind,
    params: RunParams,
    cancel: CancelToken,
}

enum JobKind {
    Partition,
    Eco(EditScript),
}

/// What one request line decodes to.
enum Decoded {
    /// The final reply of a request answered without a run.
    Answered(String),
    /// A run registered under its id, so `cancel` can reach it.
    Run(Box<Job>),
}

/// A lazily-spawned per-session worker: the submit side of its bounded
/// queue plus the count of jobs accepted but not yet finished.
struct WorkerHandle {
    tx: SyncSender<Box<Job>>,
    pending: Arc<AtomicUsize>,
}

fn write_line<W: Write>(out: &Mutex<W>, line: &str) {
    let mut w = out.lock().unwrap();
    // A vanished client must not poison the server; the read side of
    // the connection will observe the close.
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// Streams engine events to the wire as `progress` lines for one
/// request.
struct WireSink<'a, W: Write> {
    out: &'a Mutex<W>,
    id: &'a str,
}

impl<W: Write> EventSink for WireSink<'_, W> {
    fn record_event(&mut self, event: &TraceEvent) {
        write_line(self.out, &protocol::progress_line(self.id, &event_to_json(event)));
    }
}

fn run_failed(e: impl std::fmt::Display) -> ProtocolError {
    ProtocolError::new("run_failed", e.to_string())
}

impl Server {
    /// Creates an idle server with no sessions.
    #[must_use]
    pub fn new(config: ServerConfig) -> Server {
        Server {
            config,
            sessions: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The configuration the server was built with.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether shutdown has been requested — by a `shutdown` command
    /// or by the external [`ServerConfig::stop`] flag.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || self.config.stop.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Requests shutdown: refuses new work and cancels every in-flight
    /// and queued request (each still produces its final reply, with a
    /// `cancelled`/`degraded` completion).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for token in self.inflight.lock().unwrap().values() {
            token.cancel();
        }
    }

    /// Number of loaded sessions.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Processes one request line synchronously on the calling thread,
    /// writing every reply line (interim and final) to `out`. This is
    /// the no-concurrency core of the protocol — [`Server::serve`]
    /// decodes each line the same way and adds the per-session queues
    /// and workers on top — and the entry point tests and benchmarks
    /// drive directly.
    pub fn handle<W: Write + Send>(&self, line: &str, out: &mut W) {
        let out = Mutex::new(out);
        let reply = match self.decode(line) {
            Decoded::Answered(reply) => reply,
            Decoded::Run(job) => self.execute(&job, &out),
        };
        write_line(&out, &reply);
    }

    /// Decodes one request line. `load`, `query`, `cancel`, `shutdown`
    /// and every refusal (shutting down, bad edits, unknown session,
    /// duplicate id, in that order) are answered here; a partition or
    /// eco request comes back as a registered [`Job`].
    fn decode(&self, line: &str) -> Decoded {
        let (id, command) = protocol::parse_request(line);
        let command = match command {
            Ok(command) => command,
            Err(e) => return Decoded::Answered(protocol::error_line(id.as_deref(), &e)),
        };
        let id = id.expect("every decoded command has an id");
        let answer = |result| Decoded::Answered(reply_line(&id, result));
        if self.is_stopped() && !matches!(command, Command::Query { .. } | Command::Shutdown) {
            return answer(Err(ProtocolError::new("shutting_down", "server is shutting down")));
        }
        let (name, kind, params) = match command {
            Command::Load { session, path, device, s_max, t_max, delta } => {
                return answer(self.load(&session, &path, device.as_deref(), s_max, t_max, delta));
            }
            Command::Query { session } => return answer(self.query(session.as_deref())),
            Command::Cancel { target } => return answer(Ok(self.cancel(&target))),
            Command::Shutdown => {
                self.shutdown();
                let sessions = self.session_count();
                return answer(Ok(format!("{{\"shutdown\": true, \"sessions\": {sessions}}}")));
            }
            Command::Partition { session, params } => (session, JobKind::Partition, params),
            Command::Eco { session, edits, params } => match self.parse_edits(&edits) {
                Ok(script) => (session, JobKind::Eco(script), params),
                Err(e) => return answer(Err(e)),
            },
        };
        let registered = self.session(&name).and_then(|session| Ok((session, self.register(&id)?)));
        match registered {
            Ok((session, cancel)) => {
                Decoded::Run(Box::new(Job { id, name, session, kind, params, cancel }))
            }
            Err(e) => answer(Err(e)),
        }
    }

    /// Looks up a session by name.
    fn session(&self, name: &str) -> Result<Arc<Mutex<Session>>, ProtocolError> {
        self.sessions.lock().unwrap().get(name).cloned().ok_or_else(|| {
            ProtocolError::new("unknown_session", format!("no session named `{name}` is loaded"))
        })
    }

    /// Registers a request id's cancellation token; duplicate live ids
    /// are refused (they would make `cancel` ambiguous).
    fn register(&self, id: &str) -> Result<CancelToken, ProtocolError> {
        let token = CancelToken::new();
        let mut inflight = self.inflight.lock().unwrap();
        if inflight.contains_key(id) {
            return Err(ProtocolError::new(
                "duplicate_id",
                format!("request id `{id}` is already in flight"),
            ));
        }
        inflight.insert(id.to_owned(), token.clone());
        Ok(token)
    }

    fn parse_edits(&self, edits: &EditSource) -> Result<EditScript, ProtocolError> {
        let text = match edits {
            EditSource::Inline(text) => text.clone(),
            EditSource::Path(path) => std::fs::read_to_string(path).map_err(|e| {
                ProtocolError::new("bad_request", format!("cannot read edits {path}: {e}"))
            })?,
        };
        EditScript::parse_limited(&text, &self.config.limits)
            .map_err(|e| ProtocolError::new("bad_request", format!("bad edit script: {e}")))
    }

    /// Parses a netlist and binds it to `name` (replacing any previous
    /// binding), returning the `load` result body.
    fn load(
        &self,
        name: &str,
        path: &str,
        device: Option<&str>,
        s_max: Option<u64>,
        t_max: Option<usize>,
        delta: f64,
    ) -> Result<String, ProtocolError> {
        let constraints = resolve_constraints(device, s_max, t_max, delta)?;
        let graph = read_netlist_path(Path::new(path), &self.config.limits)
            .map_err(|e| ProtocolError::new("load_failed", e))?;
        let (nodes, nets, pins) = (graph.node_count(), graph.net_count(), graph.pin_count());
        let session = Session {
            graph: Arc::new(graph),
            constraints,
            path: path.to_owned(),
            last: None,
            blocks: 0,
            totals: Metrics::enabled(),
            requests: 0,
        };
        let replaced = self
            .sessions
            .lock()
            .unwrap()
            .insert(name.to_owned(), Arc::new(Mutex::new(session)))
            .is_some();
        Ok(format!(
            "{{\"session\": {}, \"nodes\": {nodes}, \"nets\": {nets}, \"pins\": {pins}, \
             \"s_max\": {}, \"t_max\": {}, \"replaced\": {replaced}}}",
            protocol::json_string(name),
            constraints.s_max,
            constraints.t_max,
        ))
    }

    /// Renders the `query` result body: one session's state, including
    /// its graph's [`fingerprint_graph`] (one O(pins) pass), or the
    /// sorted list of all sessions.
    fn query(&self, name: Option<&str>) -> Result<String, ProtocolError> {
        if let Some(name) = name {
            let session = self.session(name)?;
            let s = session.lock().unwrap();
            return Ok(format!(
                "{{\"session\": {}, \"path\": {}, \"nodes\": {}, \"nets\": {}, \
                 \"s_max\": {}, \"t_max\": {}, \"requests\": {}, \"blocks\": {}, \
                 \"has_assignment\": {}, \"fingerprint\": \"{}\", \
                 \"counters\": {{\"server_requests\": {}, \"server_cancelled\": {}, \
                 \"runs\": {}, \"passes\": {}, \"moves_applied\": {}}}}}",
                protocol::json_string(name),
                protocol::json_string(&s.path),
                s.graph.node_count(),
                s.graph.net_count(),
                s.constraints.s_max,
                s.constraints.t_max,
                s.requests,
                s.blocks,
                s.last.is_some(),
                fingerprint_graph(&s.graph),
                s.totals.get(Counter::ServerRequests),
                s.totals.get(Counter::ServerCancelled),
                s.totals.get(Counter::Runs),
                s.totals.get(Counter::Passes),
                s.totals.get(Counter::MovesApplied),
            ));
        }
        let sessions = self.sessions.lock().unwrap();
        let mut names: Vec<&String> = sessions.keys().collect();
        names.sort();
        let mut body = String::from("{\"sessions\": [");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let s = sessions[n.as_str()].lock().unwrap();
            let _ = write!(
                body,
                "{{\"session\": {}, \"nodes\": {}, \"requests\": {}}}",
                protocol::json_string(n),
                s.graph.node_count(),
                s.requests,
            );
        }
        body.push_str("]}");
        Ok(body)
    }

    /// Cancels the request with id `target`; the `cancel` result body
    /// reports whether a live request was found. The cancelled request
    /// still produces its own final reply.
    fn cancel(&self, target: &str) -> String {
        let found = match self.inflight.lock().unwrap().get(target) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        };
        format!("{{\"target\": {}, \"cancelled\": {found}}}", protocol::json_string(target))
    }

    /// Runs one registered job and returns its final reply line. The
    /// id is deregistered before the reply goes out, so a client that
    /// reacts to the reply at once may reuse it.
    fn execute<W: Write + Send>(&self, job: &Job, out: &Mutex<W>) -> String {
        let result = match &job.kind {
            JobKind::Partition => self.run_partition(job, out),
            JobKind::Eco(script) => self.run_eco(job, script),
        };
        self.inflight.lock().unwrap().remove(&job.id);
        reply_line(&job.id, result)
    }

    /// Runs one request's restart search: the job's params shape the
    /// budget, seed, restarts and threads (clamped to the server's
    /// total), and a single-restart run streams heartbeats to
    /// `progress` when given. Returns the report and the thread budget
    /// it ran with.
    fn run_search(
        &self,
        graph: &Hypergraph,
        constraints: DeviceConstraints,
        algorithm: Algorithm<'_>,
        job: &Job,
        progress: Option<&mut dyn EventSink>,
    ) -> Result<(RestartsReport, usize), ProtocolError> {
        let params = &job.params;
        let mut cfg = FpartConfig::default();
        if let Some(seed) = params.seed {
            cfg.seed = seed;
        }
        cfg.budget = RunBudget {
            deadline: params.deadline_ms.map(Duration::from_millis),
            max_passes: params.max_passes,
            max_moves: params.max_moves,
            cancel: Some(job.cancel.clone()),
        };
        let total = self.config.threads.max(1);
        let threads = params.threads.unwrap_or(total).clamp(1, total);
        let streaming = progress.is_some();
        let mut obs = Observer::new(Metrics::enabled(), progress);
        if streaming {
            obs.heartbeat = Heartbeat::every(Duration::from_millis(self.config.heartbeat_ms));
        }
        let restarts = Restarts { count: params.restarts, threads, ..Restarts::default() };
        let report =
            search(graph, constraints, &cfg, algorithm, &restarts, &mut obs).map_err(run_failed)?;
        Ok((report, threads))
    }

    fn run_partition<W: Write + Send>(
        &self,
        job: &Job,
        out: &Mutex<W>,
    ) -> Result<String, ProtocolError> {
        let (graph, constraints) = {
            let s = job.session.lock().unwrap();
            (Arc::clone(&s.graph), s.constraints)
        };
        let ml = MultilevelConfig { memo: self.config.memo.clone(), ..MultilevelConfig::default() };
        let algorithm = match job.params.method {
            Method::Multilevel => Algorithm::Multilevel(&ml),
            Method::Fpart => Algorithm::Flat,
        };
        let mut sink = job.params.progress.then_some(WireSink { out, id: &job.id });
        let progress = sink.as_mut().map(|sink| sink as &mut dyn EventSink);
        let started = Instant::now();
        let (report, threads) = self.run_search(&graph, constraints, algorithm, job, progress)?;
        let elapsed_ms = started.elapsed().as_millis();
        if let Some(path) = &job.params.output {
            write_assignment_atomic(path, &graph, &report.outcome)?;
        }
        job.session.lock().unwrap().record(&report);
        Ok(render_run_result(job, &report, threads, elapsed_ms, ""))
    }

    fn run_eco(&self, job: &Job, script: &EditScript) -> Result<String, ProtocolError> {
        let (graph, constraints, previous) = {
            let s = job.session.lock().unwrap();
            let previous = s.last.clone().ok_or_else(|| {
                ProtocolError::new(
                    "no_assignment",
                    format!(
                        "session `{}` has no partition to repair; run `partition` first",
                        job.name
                    ),
                )
            })?;
            (Arc::clone(&s.graph), s.constraints, previous)
        };
        let started = Instant::now();
        let edited = apply_script(&graph, script)
            .map_err(|e| ProtocolError::new("bad_request", format!("edit script failed: {e}")))?;
        // ECO repair and its fallback V-cycle never consult the memo.
        let eco = EcoConfig::default();
        let algorithm =
            Algorithm::Eco { eco: &eco, previous: &previous, node_map: &edited.node_map };
        let (report, threads) =
            self.run_search(&edited.graph, constraints, algorithm, job, None)?;
        let elapsed_ms = started.elapsed().as_millis();
        let edited_graph = Arc::new(edited.graph);
        if let Some(path) = &job.params.output {
            write_assignment_atomic(path, &edited_graph, &report.outcome)?;
        }
        let extra = format!(
            ", \"edits\": {}, \"added_nodes\": {}, \"removed_nodes\": {}, \"nodes\": {}",
            script.len(),
            edited.added_nodes,
            edited.removed_nodes,
            edited_graph.node_count(),
        );
        let mut s = job.session.lock().unwrap();
        s.record(&report);
        s.graph = edited_graph;
        Ok(render_run_result(job, &report, threads, elapsed_ms, &extra))
    }

    /// Serves one connection over arbitrary reader/writer halves
    /// (stdio in the CLI). Blocks until the stream ends or a
    /// `shutdown` request (or the external stop flag) fires. Each line
    /// is decoded as [`Server::handle`] decodes it; partition and eco
    /// runs go to lazily-spawned per-session worker threads behind
    /// bounded queues, and everything else is answered inline, so
    /// `query` and `cancel` stay responsive while runs are in flight.
    ///
    /// # Errors
    ///
    /// Propagates fatal I/O errors from the reader (timeouts are
    /// retried internally; see [`protocol::read_line_limited`]).
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        mut reader: R,
        writer: W,
    ) -> std::io::Result<()> {
        let out = Mutex::new(writer);
        write_line(&out, &protocol::hello_line());
        let stop = || self.is_stopped();
        std::thread::scope(|scope| -> std::io::Result<()> {
            let mut workers: HashMap<String, WorkerHandle> = HashMap::new();
            while !self.is_stopped() {
                let line = match protocol::read_line_limited(
                    &mut reader,
                    self.config.limits.max_line_len,
                    &stop,
                )? {
                    None => break,
                    Some(Err(e)) => {
                        write_line(&out, &protocol::error_line(None, &e));
                        continue;
                    }
                    Some(Ok(line)) => line,
                };
                if line.trim().is_empty() {
                    continue;
                }
                match self.decode(&line) {
                    Decoded::Answered(reply) => write_line(&out, &reply),
                    Decoded::Run(job) => self.enqueue(scope, &mut workers, &out, job),
                }
            }
            // Dropping the submit handles lets workers drain their
            // queues (cancelled jobs finish fast) and exit; the scope
            // joins them before the writer is released.
            workers.clear();
            Ok(())
        })
    }

    /// Parks a registered job in its session's queue, spawning the
    /// session's worker on first use. A full queue refuses the job with
    /// `busy`; a job parked behind others is acknowledged with `queued`.
    fn enqueue<'scope, 'env, W: Write + Send + 'scope>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        workers: &mut HashMap<String, WorkerHandle>,
        out: &'scope Mutex<W>,
        job: Box<Job>,
    ) {
        let worker = workers.entry(job.name.clone()).or_insert_with(|| {
            let (tx, rx) = sync_channel::<Box<Job>>(self.config.queue_capacity);
            let pending = Arc::new(AtomicUsize::new(0));
            let worker_pending = Arc::clone(&pending);
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    let line = self.execute(&job, out);
                    // Counted down on completion (not on start) so
                    // `pending` is running-plus-queued: a submit parked
                    // behind a running job sees position 1. Count down
                    // BEFORE the reply goes out: a client that reacts to
                    // the final reply immediately must not observe stale
                    // backpressure.
                    worker_pending.fetch_sub(1, Ordering::SeqCst);
                    write_line(out, &line);
                }
            });
            WorkerHandle { tx, pending }
        });
        let id = job.id.clone();
        let ahead = worker.pending.fetch_add(1, Ordering::SeqCst);
        match worker.tx.try_send(job) {
            Ok(()) => {
                if ahead > 0 {
                    write_line(out, &protocol::queued_line(&id, ahead));
                }
            }
            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                worker.pending.fetch_sub(1, Ordering::SeqCst);
                self.inflight.lock().unwrap().remove(&id);
                let e = ProtocolError::new(
                    "busy",
                    format!(
                        "session `{}` queue is full ({} requests waiting)",
                        job.name, self.config.queue_capacity
                    ),
                );
                write_line(out, &protocol::error_line(Some(&id), &e));
            }
        }
    }

    /// Binds `path` as a Unix domain socket and serves connections
    /// until shutdown. Each connection gets its own [`Server::serve`]
    /// loop on a scoped thread; sessions are shared across
    /// connections, so one client can `load` and another `partition`.
    /// A stale socket file at `path` is replaced; the file is removed
    /// on clean exit.
    ///
    /// # Errors
    ///
    /// Fails when the socket cannot be bound or accepted from.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let result = std::thread::scope(|scope| -> std::io::Result<()> {
            loop {
                if self.is_stopped() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Blocking reads with a short timeout so idle
                        // connections observe shutdown promptly.
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
                        let reader = BufReader::new(stream.try_clone()?);
                        scope.spawn(move || {
                            let _ = self.serve(reader, stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        let _ = std::fs::remove_file(path);
        result
    }
}

/// Resolves `load` device fields exactly like the CLI: a catalog name
/// with a filling ratio, or explicit caps.
fn resolve_constraints(
    device: Option<&str>,
    s_max: Option<u64>,
    t_max: Option<usize>,
    delta: f64,
) -> Result<DeviceConstraints, ProtocolError> {
    match (device, s_max, t_max) {
        (Some(name), None, None) => Device::by_name(name)
            .map(|d| d.constraints(delta))
            .ok_or_else(|| ProtocolError::new("bad_request", format!("unknown device `{name}`"))),
        (None, Some(s), Some(t)) => Ok(DeviceConstraints::new(s, t)),
        (Some(_), _, _) => {
            Err(ProtocolError::new("bad_request", "give `device` or `s_max`/`t_max`, not both"))
        }
        _ => Err(ProtocolError::new(
            "bad_request",
            "missing device: give `device` or both `s_max` and `t_max`",
        )),
    }
}

/// Writes the winning assignment in the versioned format via the
/// crash-safe temp-fsync-rename path.
fn write_assignment_atomic(
    path: &str,
    graph: &Hypergraph,
    outcome: &crate::driver::PartitionOutcome,
) -> Result<(), ProtocolError> {
    let mut bytes = Vec::new();
    crate::assignment::write_assignment_versioned(
        &mut bytes,
        graph,
        &outcome.assignment,
        outcome.blocks.len(),
    )
    .map_err(|e| ProtocolError::new("run_failed", format!("cannot render assignment: {e}")))?;
    write_atomic(Path::new(path), &bytes)
        .map_err(|e| ProtocolError::new("run_failed", format!("cannot write {path}: {e}")))
}

/// The final reply line of request `id`: its result body, or its error.
fn reply_line(id: &str, result: Result<String, ProtocolError>) -> String {
    match result {
        Ok(body) => protocol::ok_line(id, &body),
        Err(e) => protocol::error_line(Some(id), &e),
    }
}

/// Renders the shared result body of `partition` and `eco` replies.
fn render_run_result(
    job: &Job,
    report: &RestartsReport,
    threads: usize,
    elapsed_ms: u128,
    extra: &str,
) -> String {
    let o = &report.outcome;
    let mut body = format!(
        "{{\"session\": {}, \"devices\": {}, \"lower_bound\": {}, \"feasible\": {}, \
         \"cut\": {}, \"total_moves\": {}, \"completion\": \"{}\", \"restarts\": {}, \
         \"threads\": {threads}, \"failed_restarts\": {}, \"elapsed_ms\": {elapsed_ms}, \
         \"counters\": {{\"runs\": {}, \"passes\": {}, \"moves_applied\": {}}}{extra}",
        protocol::json_string(&job.name),
        o.device_count,
        o.lower_bound,
        o.feasible,
        o.cut,
        o.total_moves,
        report.completion.as_str(),
        job.params.restarts,
        report.failed.len(),
        report.totals.get(Counter::Runs),
        report.totals.get(Counter::Passes),
        report.totals.get(Counter::MovesApplied),
    );
    if job.params.return_assignment {
        body.push_str(", \"assignment\": [");
        for (i, b) in o.assignment.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "{b}");
        }
        body.push(']');
    }
    if let Some(path) = &job.params.output {
        let _ = write!(body, ", \"output\": {}", protocol::json_string(path));
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};

    fn temp_netlist(name: &str, nodes: usize, terminals: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fpart_server_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.fhg"));
        let graph = window_circuit(&WindowConfig::new(name, nodes, terminals), 7);
        let file = std::fs::File::create(&path).unwrap();
        fpart_hypergraph::io::write_netlist(file, &graph).unwrap();
        path
    }

    fn parse_reply(out: &[u8]) -> Vec<Json> {
        String::from_utf8(out.to_vec()).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect()
    }

    #[test]
    fn load_partition_query_round_trip() {
        let path = temp_netlist("roundtrip", 120, 8);
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
        server.handle(
            "{\"id\": \"2\", \"cmd\": \"partition\", \"session\": \"s\", \"seed\": 5}",
            &mut out,
        );
        server.handle("{\"id\": \"3\", \"cmd\": \"query\", \"session\": \"s\"}", &mut out);
        let replies = parse_reply(&out);
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0].get("ok"), Some(&Json::Bool(true)));
        let result = replies[1].get("result").unwrap();
        assert_eq!(result.get("completion").unwrap().as_str(), Some("complete"));
        assert!(result.get("devices").unwrap().as_u64().unwrap() >= 1);
        let q = replies[2].get("result").unwrap();
        assert_eq!(q.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(q.get("has_assignment"), Some(&Json::Bool(true)));
        assert_eq!(q.get("counters").unwrap().get("server_requests").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn unknown_session_and_duplicate_load_are_typed() {
        let server = Server::new(ServerConfig::default());
        let mut out = Vec::new();
        server.handle("{\"id\": \"9\", \"cmd\": \"partition\", \"session\": \"ghost\"}", &mut out);
        let replies = parse_reply(&out);
        assert_eq!(replies[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            replies[0].get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_session")
        );
    }

    #[test]
    fn shutdown_refuses_new_runs() {
        let server = Server::new(ServerConfig::default());
        let mut out = Vec::new();
        server.handle("{\"id\": \"1\", \"cmd\": \"shutdown\"}", &mut out);
        server.handle("{\"id\": \"2\", \"cmd\": \"partition\", \"session\": \"s\"}", &mut out);
        let replies = parse_reply(&out);
        assert_eq!(replies[0].get("result").unwrap().get("shutdown"), Some(&Json::Bool(true)));
        assert_eq!(
            replies[1].get("error").unwrap().get("code").unwrap().as_str(),
            Some("shutting_down")
        );
    }
}

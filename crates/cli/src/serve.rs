//! `fpart serve` — the long-running sessionful partition server.
//!
//! Speaks the JSON-Lines protocol of [`fpart_core::server`] over
//! stdio by default, or over a Unix domain socket with `--listen`.
//! SIGINT/SIGTERM shut the server down cooperatively: in-flight runs
//! are cancelled at their next pass boundary and still produce their
//! final replies before the process exits.

use std::io::{BufReader, Write};
use std::path::Path;

use fpart_core::{CancelToken, Server, ServerConfig};

use crate::args::{Args, Spec};
use crate::commands::resolve_limits;
use crate::error::CliError;
use crate::{interrupted, signal_exit_error};

const SPEC: Spec<'static> = Spec {
    valued: &[
        "listen",
        "threads",
        "queue",
        "heartbeat-ms",
        "max-nodes",
        "max-nets",
        "max-pins",
        "max-name-len",
        "max-line-len",
    ],
    switches: &[],
};

/// Entry point of the `serve` subcommand.
pub fn serve(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, SPEC).map_err(CliError::Usage)?;
    let threads: usize = args
        .option_parsed("threads", fpart_core::parallel::default_threads())
        .map_err(CliError::Usage)?;
    let queue_capacity: usize = args.option_parsed("queue", 4).map_err(CliError::Usage)?;
    let heartbeat_ms: u64 = args.option_parsed("heartbeat-ms", 200).map_err(CliError::Usage)?;
    if threads == 0 || queue_capacity == 0 {
        return Err(CliError::Usage("--threads and --queue must be at least 1".into()));
    }
    let limits = resolve_limits(&args).map_err(CliError::Usage)?;

    crate::install_signal_handlers();
    let config = ServerConfig {
        threads,
        queue_capacity,
        limits,
        heartbeat_ms,
        stop: Some(CancelToken::from_static(&crate::INTERRUPTED)),
        ..ServerConfig::default()
    };
    let server = Server::new(config);

    let result = if let Some(socket) = args.option("listen") {
        serve_listen(&server, Path::new(socket))
    } else {
        let stdin = std::io::stdin();
        // `StdoutLock` is not `Send`; the unlocked handle is, and the
        // server serializes writes behind its own mutex anyway.
        server
            .serve(BufReader::new(stdin.lock()), std::io::stdout())
            .map_err(|e| CliError::Runtime(format!("server I/O error: {e}")))
    };
    // A signal-driven exit still flushes replies first (the server
    // cancels in-flight runs and joins its workers before returning);
    // report the conventional 130/143 so scripts see the interruption.
    if interrupted() {
        result?;
        return Err(signal_exit_error());
    }
    result
}

#[cfg(unix)]
fn serve_listen(server: &Server, socket: &Path) -> Result<(), CliError> {
    // Announce readiness on stdout so scripted clients can wait for
    // the socket without polling the filesystem.
    println!("listening {}", socket.display());
    let _ = std::io::stdout().flush();
    server
        .serve_unix(socket)
        .map_err(|e| CliError::Runtime(format!("cannot serve on {}: {e}", socket.display())))
}

#[cfg(not(unix))]
fn serve_listen(_server: &Server, _socket: &Path) -> Result<(), CliError> {
    Err(CliError::Usage("--listen requires a Unix platform; use stdio mode".into()))
}

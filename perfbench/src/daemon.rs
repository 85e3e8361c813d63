//! The daemon under test, run as a child process of the generator.
//!
//! The child is this same binary invoked as `perfbench daemon --unix
//! PATH`: it binds a [`zeroconf_serve::Server`] with the default engine
//! and admission settings on one Unix socket, announces its resolved
//! configuration and endpoint on stdout, serves until its stdin closes,
//! drains, and prints the server's drain summary. Closing stdin (rather
//! than a signal) means a generator that dies also stops its daemon.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use zeroconf_client::Client;
use zeroconf_serve::{Endpoint, ServeConfig, Server};

/// How long a drain may take before the child is killed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(40);

/// Entry point of the `daemon` subcommand; returns the exit code.
pub fn serve_child(args: &[String]) -> i32 {
    match serve(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            2
        }
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let path = match args {
        [flag, path] if flag == "--unix" => PathBuf::from(path),
        _ => return Err("usage: perfbench daemon --unix PATH".to_owned()),
    };
    let config = ServeConfig {
        endpoints: vec![Endpoint::Unix(path)],
        ..ServeConfig::default()
    };
    let announce = format!(
        "config workers={} inflight={} cache_tables={} max_conns={}",
        config.engine.workers.max(1),
        config.inflight,
        config.engine.cache_tables,
        config.max_connections
    );
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle();
    let watcher = thread::spawn(move || {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        shutdown.trigger();
    });
    let mut out = io::stdout();
    writeln!(out, "{announce}").map_err(|e| e.to_string())?;
    for endpoint in server.endpoints() {
        writeln!(out, "listening {endpoint}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    let summary = server.run().map_err(|e| e.to_string())?;
    // The server only returns after the watcher triggered the drain.
    let _ = watcher.join();
    writeln!(out, "{summary}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// The server's drain summary line, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections served over the daemon's life.
    pub connections: u64,
    /// Request lines read.
    pub requests: u64,
    /// Response lines written.
    pub responses: u64,
    /// Requests withdrawn because their client disconnected.
    pub withdrawn: u64,
}

impl DrainSummary {
    /// Parses `drained cleanly: C connection(s) served, R request(s), S
    /// response(s), W withdrawn at disconnect`.
    pub fn parse(line: &str) -> Option<DrainSummary> {
        let rest = line.strip_prefix("drained cleanly: ")?;
        let numbers: Vec<u64> = rest
            .split(", ")
            .filter_map(|part| part.split_whitespace().next()?.parse().ok())
            .collect();
        match numbers[..] {
            [connections, requests, responses, withdrawn] => Some(DrainSummary {
                connections,
                requests,
                responses,
                withdrawn,
            }),
            _ => None,
        }
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    /// The child's process id.
    pub pid: u32,
    /// The resolved configuration it announced (`config …` line).
    pub config: String,
}

impl Daemon {
    /// Spawns the daemon on `socket` and waits until it is listening.
    pub fn spawn(socket: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--unix")
            .arg(socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let pid = child.id();
        let mut daemon = Daemon {
            child,
            stdin,
            stdout: BufReader::new(stdout.ok_or("daemon stdout not captured")?),
            socket: socket.to_path_buf(),
            pid,
            config: String::new(),
        };
        loop {
            let mut line = String::new();
            let read = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon stdout: {e}"))?;
            if read == 0 {
                let _ = daemon.child.wait();
                return Err("daemon exited before listening".to_owned());
            }
            let line = line.trim_end();
            if let Some(config) = line.strip_prefix("config ") {
                daemon.config = config.to_owned();
            } else if line.starts_with("listening ") {
                return Ok(daemon);
            }
        }
    }

    /// Opens one client connection to the daemon.
    pub fn connect(&self) -> Result<Client, String> {
        let mut client = Client::connect_unix(&self.socket)
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        client.set_deadline(Duration::from_secs(60));
        Ok(client)
    }

    /// Closes the daemon's stdin, waits for its drain and returns the
    /// decoded summary. Kills the child if it outlives the deadline.
    pub fn shutdown(mut self) -> Result<DrainSummary, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain before the deadline".to_owned());
                }
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let _ = std::fs::remove_file(&self.socket);
        rest.lines()
            .find_map(DrainSummary::parse)
            .ok_or_else(|| format!("no drain summary in daemon output: {rest:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached without a completed shutdown (an error path):
        // never leave a daemon behind.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_summary_parses_the_server_line() {
        let line = "drained cleanly: 3 connection(s) served, 120 request(s), 120 response(s), 0 withdrawn at disconnect";
        assert_eq!(
            DrainSummary::parse(line),
            Some(DrainSummary {
                connections: 3,
                requests: 120,
                responses: 120,
                withdrawn: 0
            })
        );
        assert_eq!(DrainSummary::parse("listening unix:x"), None);
    }
}

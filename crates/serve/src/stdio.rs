//! `zeroconf engine`: the server with one connection, on stdin and stdout.

use std::io::{self, Read, Write};
use std::net::Shutdown as SocketShutdown;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, OnceLock};

use crate::conn::{ClientSocket, StdinRules};
use crate::listener::EndpointLoop;
use crate::{ServeConfig, ServeError, ServerShared};

/// Serves one JSON-lines session: request lines from `input`, each answer
/// written to `output` as soon as it is ready, then, with `stats`, the
/// session's counters line. One end of a `UnixStream::pair()` is a
/// daemon connection under `StdinRules`, run by an `EndpointLoop`
/// without a listener on this thread; two copy threads bridge the other
/// end to `input` and `output` (stdin may be a regular file, which epoll
/// refuses). `config` sizes the engine, the executor team and the budget
/// as it does a daemon's; its endpoints and connection bound are unused.
/// The session does not wait for an input still open after it has ended.
///
/// # Errors
///
/// [`ServeError`] when the session cannot start, when a line over
/// [`MAX_LINE_BYTES`](crate::MAX_LINE_BYTES) ends it (after its one error
/// answer), when `output` fails (`writing stdout: …`; the connection's
/// unanswered work is cancelled), and when reading `input` fails
/// (`reading stdin: …`, after every answer).
pub fn serve_stdio<R, W>(
    config: ServeConfig,
    stats: bool,
    mut input: R,
    output: W,
) -> Result<W, ServeError>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let socket_error = |e: io::Error| ServeError(format!("creating the session's socket: {e}"));
    let (ours, mut theirs) = UnixStream::pair().map_err(socket_error)?;
    let answers = theirs.try_clone().map_err(socket_error)?;
    let end = Arc::new(OnceLock::new());
    let rules = StdinRules {
        capacity: config.inflight,
        end: Arc::clone(&end),
    };
    let mut event_loop = EndpointLoop::new(None, Arc::new(ServerShared::new(config)))?;
    event_loop.admit(ClientSocket::Unix(ours), Some(rules));
    let copier = |name: &str| std::thread::Builder::new().name(format!("zeroconf-{name}"));
    let spawn_error = |e: io::Error| ServeError(format!("starting a copy thread: {e}"));
    let joined = |_| ServeError("a copy thread panicked".to_owned());
    let requests = copier("stdin")
        .spawn(move || {
            // A failed write means the session ended first; a failed read
            // ends the input, as its end does.
            let copied = io::copy(&mut input, &mut theirs);
            let _ = theirs.shutdown(SocketShutdown::Write);
            copied
        })
        .map_err(spawn_error)?;
    let answers = copier("stdout")
        .spawn(move || copy_out(answers, output))
        .map_err(spawn_error)?;
    event_loop.run();
    let answers = answers.join().map_err(joined)?;
    let mut output = answers.map_err(|e| ServeError(format!("writing stdout: {e}")))?;
    let end = end.get().cloned();
    let stats_line = end.unwrap_or_else(|| Err("the session could not start".to_owned()));
    let stats_line = stats_line.map_err(ServeError)?;
    // The input ended: its copier has shut its socket end and returns.
    let read = requests.join().map_err(joined)?;
    read.map_err(|e| ServeError(format!("reading stdin: {e}")))?;
    if stats {
        writeln!(output, "{stats_line}")
            .and_then(|()| output.flush())
            .map_err(|e| ServeError(format!("writing stdout: {e}")))?;
    }
    Ok(output)
}

/// Copies the session's answers to `output`, writing and flushing each
/// read at once, until the connection closes: at EOF, or at a reset once
/// its answers are read when it closed with input unread. If `output`
/// fails, the socket is shut both ways, so the connection sees its client
/// gone and cancels its unanswered work.
fn copy_out<W: Write>(mut socket: UnixStream, mut output: W) -> io::Result<W> {
    let mut chunk = vec![0_u8; 64 * 1024];
    loop {
        let copied = match socket.read(&mut chunk) {
            Ok(0) => return Ok(output),
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(output),
            Ok(n) => output.write_all(&chunk[..n]).and_then(|()| output.flush()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        };
        if let Err(e) = copied {
            let _ = socket.shutdown(SocketShutdown::Both);
            return Err(e);
        }
    }
}

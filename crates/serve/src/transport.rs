//! How request lines reach the service and response lines leave it.
//!
//! The daemon speaks line-delimited JSON over an abstract [`Transport`] so
//! the protocol layer never touches a socket or a pipe directly: stdio today
//! ([`StdioTransport`]), an in-process channel pair for tests, benchmarks and
//! embedded clients ([`ChannelTransport`]), and room for TCP/HTTP transports
//! later without touching the service.
//!
//! The split between [`Transport::recv`] (blocking) and
//! [`Transport::try_recv`] (non-blocking drain) is what enables request
//! coalescing: the serve loop blocks for one request, then drains everything
//! already queued behind it into the same lockstep evaluation batch.

use crate::service::MAX_REQUEST_LINE_BYTES;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};

/// A bidirectional stream of protocol lines.
pub trait Transport {
    /// Blocks until the next request line arrives; `None` means end of
    /// input (client closed the stream).
    fn recv(&mut self) -> Option<String>;

    /// Returns a request line only if one is already pending; never blocks.
    fn try_recv(&mut self) -> Option<String>;

    /// Sends one response line (without the trailing newline).
    fn send(&mut self, line: &str);
}

/// Reads request lines from `input` and hands each to `deliver`, in order,
/// until end of input, a read error, or `deliver` returns `false`.
///
/// No line from outside stops the reader or grows its buffer without bound:
///
/// * a line longer than [`MAX_REQUEST_LINE_BYTES`] is cut to its first
///   `MAX_REQUEST_LINE_BYTES + 1` bytes, which the service refuses with
///   `limit_exceeded`, and the rest of it is skipped up to its newline;
/// * bytes that are not UTF-8 decode to U+FFFD, so the line is answered
///   like any other (outside a string literal, with a `parse_error`).
///
/// A trailing `\r` is dropped with the newline, and a last line without a
/// newline is delivered too.
fn read_request_lines(mut input: impl BufRead, mut deliver: impl FnMut(String) -> bool) {
    let cap = MAX_REQUEST_LINE_BYTES as u64 + 1;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut input).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() as u64 == cap && input.skip_until(b'\n').is_err() {
            return;
        }
        if !deliver(String::from_utf8_lossy(&buf).into_owned()) {
            return;
        }
    }
}

/// The stdio transport: requests on stdin, responses on stdout.
///
/// A reader thread pulls stdin lines into a channel so the serve loop can
/// drain already-buffered requests without blocking. A line longer than
/// [`MAX_REQUEST_LINE_BYTES`] reaches the service cut one byte past the
/// limit (and is refused there), and bytes that are not UTF-8 decode to
/// U+FFFD, so no input line ends the reader.
pub struct StdioTransport {
    incoming: Receiver<String>,
    disconnected: bool,
}

impl StdioTransport {
    /// Starts the stdin reader thread and returns the transport.
    pub fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("acso-serve-stdin".to_string())
            .spawn(move || {
                read_request_lines(std::io::stdin().lock(), |line| tx.send(line).is_ok());
            })
            .expect("spawn stdin reader thread");
        Self {
            incoming: rx,
            disconnected: false,
        }
    }
}

impl Default for StdioTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for StdioTransport {
    fn recv(&mut self) -> Option<String> {
        if self.disconnected {
            return None;
        }
        match self.incoming.recv() {
            Ok(line) => Some(line),
            Err(_) => {
                self.disconnected = true;
                None
            }
        }
    }

    fn try_recv(&mut self) -> Option<String> {
        if self.disconnected {
            return None;
        }
        match self.incoming.try_recv() {
            Ok(line) => Some(line),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.disconnected = true;
                None
            }
        }
    }

    fn send(&mut self, line: &str) {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
    }
}

/// An in-process transport backed by channels; the server side.
///
/// Built with [`ChannelTransport::pair`], which also returns the matching
/// [`ClientEnd`]. Used by the integration tests and
/// `examples/serve_client.rs` to drive the daemon without a subprocess.
pub struct ChannelTransport {
    incoming: Receiver<String>,
    outgoing: Sender<String>,
    disconnected: bool,
}

/// The client side of a [`ChannelTransport`] pair.
pub struct ClientEnd {
    to_server: Sender<String>,
    from_server: Receiver<String>,
}

impl ChannelTransport {
    /// Creates a connected (server transport, client end) pair.
    pub fn pair() -> (ChannelTransport, ClientEnd) {
        let (client_tx, server_rx) = mpsc::channel();
        let (server_tx, client_rx) = mpsc::channel();
        (
            ChannelTransport {
                incoming: server_rx,
                outgoing: server_tx,
                disconnected: false,
            },
            ClientEnd {
                to_server: client_tx,
                from_server: client_rx,
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn recv(&mut self) -> Option<String> {
        if self.disconnected {
            return None;
        }
        match self.incoming.recv() {
            Ok(line) => Some(line),
            Err(_) => {
                self.disconnected = true;
                None
            }
        }
    }

    fn try_recv(&mut self) -> Option<String> {
        if self.disconnected {
            return None;
        }
        match self.incoming.try_recv() {
            Ok(line) => Some(line),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.disconnected = true;
                None
            }
        }
    }

    fn send(&mut self, line: &str) {
        let _ = self.outgoing.send(line.to_string());
    }
}

impl ClientEnd {
    /// Queues one request line for the server.
    ///
    /// # Errors
    ///
    /// Returns an error if the server side has hung up.
    pub fn send_line(&self, line: &str) -> Result<(), String> {
        self.to_server
            .send(line.to_string())
            .map_err(|_| "server hung up".to_string())
    }

    /// Blocks for the next response line; `None` when the server has hung
    /// up and drained.
    pub fn recv_line(&self) -> Option<String> {
        self.from_server.recv().ok()
    }

    /// Drops the sending half, signalling end-of-input to the server.
    pub fn close(self) -> Receiver<String> {
        self.from_server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn the_reader_bounds_lines_and_decodes_them_lossily() {
        let mut input = b"{\"id\":1}\r\n".to_vec();
        input.extend(vec![b'x'; MAX_REQUEST_LINE_BYTES + 10]);
        input.extend(b"\n{\"x\":\"\xff\"}\nlast");
        let mut lines = Vec::new();
        read_request_lines(Cursor::new(input), |line| {
            lines.push(line);
            true
        });
        assert_eq!(
            lines.len(),
            4,
            "{:?}",
            lines.iter().map(String::len).collect::<Vec<_>>()
        );
        assert_eq!(lines[0], "{\"id\":1}");
        assert_eq!(lines[1], "x".repeat(MAX_REQUEST_LINE_BYTES + 1));
        assert_eq!(lines[2], "{\"x\":\"\u{fffd}\"}");
        assert_eq!(lines[3], "last");

        // `deliver` returning false stops the reader.
        let mut seen = 0;
        read_request_lines(Cursor::new(b"a\nb\n".to_vec()), |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn channel_pair_round_trips_lines() {
        let (mut server, client) = ChannelTransport::pair();
        client.send_line("req-1").unwrap();
        client.send_line("req-2").unwrap();
        assert_eq!(server.recv().as_deref(), Some("req-1"));
        // The second request is already pending: try_recv sees it.
        assert_eq!(server.try_recv().as_deref(), Some("req-2"));
        assert_eq!(server.try_recv(), None);
        server.send("resp-1");
        assert_eq!(client.recv_line().as_deref(), Some("resp-1"));
    }

    #[test]
    fn closing_the_client_ends_the_stream() {
        let (mut server, client) = ChannelTransport::pair();
        client.send_line("last").unwrap();
        let responses = client.close();
        assert_eq!(server.recv().as_deref(), Some("last"));
        assert_eq!(server.recv(), None);
        assert_eq!(server.recv(), None, "stays disconnected");
        assert_eq!(server.try_recv(), None);
        // The response channel outlives the request channel: the client can
        // still drain answers after signalling end-of-input.
        server.send("late");
        assert_eq!(responses.recv().ok().as_deref(), Some("late"));
        drop(server);
        assert!(responses.recv().is_err());
    }
}

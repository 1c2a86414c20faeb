//! The coordinator's side of the shard protocol: persistent JSON-lines
//! TCP connections to one shard.
//!
//! A shard is an ordinary `qas serve --port` process; the client speaks
//! the exact protocol a human would over `nc` — one JSON request per
//! line, one JSON response per line. Every I/O failure tears down the
//! connection and surfaces as [`SearchError::Cluster`]; the next request
//! reconnects from scratch, so a shard that restarts is re-reachable
//! without any coordinator state beyond its address.
//!
//! [`read_bounded_line`] frames every JSON line this tier reads: the
//! client's replies here, and both of `qas`'s front doors' requests.

use crate::error::SearchError;
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

/// The longest JSON line [`read_bounded_line`] buffers, in bytes. The
/// largest legitimate line is a `submit_spec` that carries a checkpoint.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Read one `\n`-terminated line, without its newline, as lossy UTF-8.
/// A last line that ends at EOF without a newline counts as a line.
/// Returns `None` at EOF, and an `InvalidData` error once more than
/// [`MAX_LINE_BYTES`] arrive without a newline (nothing after them can be
/// framed).
pub fn read_bounded_line<R: BufRead + ?Sized>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    if reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)?
        == 0
    {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {MAX_LINE_BYTES} bytes without a newline"),
        ));
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// Where a shard lives, and (optionally) where its journal does.
#[derive(Debug, Clone)]
pub struct ShardEndpoint {
    /// `host:port` of the shard's `qas serve --port` listener.
    pub addr: String,
    /// The shard's `--state-dir`, when the coordinator can reach it
    /// (same machine or shared filesystem). This is what checkpoint
    /// migration reads post-mortem: a dead shard's journal is replayed
    /// read-only to recover checkpoints and finished results. `None`
    /// means migration falls back to re-running jobs from scratch —
    /// still bit-identical, just slower.
    pub state_dir: Option<PathBuf>,
}

impl ShardEndpoint {
    /// An endpoint with no reachable state dir.
    pub fn new(addr: impl Into<String>) -> ShardEndpoint {
        ShardEndpoint {
            addr: addr.into(),
            state_dir: None,
        }
    }

    /// Attach the shard's journal directory for post-mortem recovery.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> ShardEndpoint {
        self.state_dir = Some(dir.into());
        self
    }
}

/// A lazily-(re)connecting JSON-lines request client for one shard.
///
/// Not internally synchronized: the coordinator wraps each client it
/// shares in a mutex, and keeps one client per shard each for proxied
/// requests, heartbeats and its completion watcher.
pub struct ShardClient {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    /// Whether reads time out after `io_timeout` (a blocking `wait_any`
    /// may legitimately last as long as the jobs it lists do).
    read_timeout: bool,
    conn: Option<BufReader<TcpStream>>,
}

impl ShardClient {
    /// A client for `addr`; connects on first use.
    pub fn new(
        addr: impl Into<String>,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> ShardClient {
        ShardClient {
            addr: addr.into(),
            connect_timeout,
            io_timeout,
            read_timeout: true,
            conn: None,
        }
    }

    /// The same client with reads that never time out; writes keep
    /// `io_timeout`. Such a connection is unblocked by the shard answering,
    /// by the shard dying, or by shutting down the handle [`Self::socket`]
    /// returned.
    pub fn without_read_timeout(mut self) -> ShardClient {
        self.read_timeout = false;
        self
    }

    /// The shard's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether a connection is currently established.
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Drop the connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// One request/response round trip. Any I/O or framing failure
    /// drops the connection and maps to [`SearchError::Cluster`].
    pub fn request(&mut self, request: &Value) -> Result<Value, SearchError> {
        let outcome = self.round_trip(request);
        self.or_disconnect(outcome)
    }

    /// Connect if needed and return a second handle to the socket, through
    /// which another thread can shut the connection down to unblock a
    /// pending request.
    pub fn socket(&mut self) -> Result<TcpStream, SearchError> {
        let outcome = self.ensure_connected().and_then(|()| {
            let conn = self.conn.as_ref().expect("just connected");
            conn.get_ref()
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))
        });
        self.or_disconnect(outcome)
    }

    fn or_disconnect<T>(&mut self, outcome: Result<T, String>) -> Result<T, SearchError> {
        outcome.map_err(|message| {
            self.conn = None;
            SearchError::Cluster {
                message: format!("shard {}: {message}", self.addr),
            }
        })
    }

    fn round_trip(&mut self, request: &Value) -> Result<Value, String> {
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("just connected");
        let mut line =
            serde_json::to_string(request).map_err(|e| format!("encode request: {e}"))?;
        // One write, so the request leaves as one segment on the
        // `TCP_NODELAY` socket.
        line.push('\n');
        let mut stream = conn.get_ref();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send request: {e}"))?;
        // A shard writes its reply line in two sends. Acknowledge the
        // first at once, or a delayed ACK holds the second back ≈ 40 ms
        // when requests follow replies back to back (the watcher's rounds).
        #[cfg(target_os = "linux")]
        let _ = std::os::linux::net::TcpStreamExt::set_quickack(stream, true);
        let response = read_bounded_line(conn)
            .map_err(|e| format!("read response: {e}"))?
            .ok_or_else(|| "connection closed mid-request".to_string())?;
        serde_json::from_str(response.trim()).map_err(|e| format!("decode response: {e}"))
    }

    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let addrs: Vec<_> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve address: {e}"))?
            .collect();
        let mut last_err = format!("no socket addresses for '{}'", self.addr);
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(self.read_timeout.then_some(self.io_timeout))
                        .map_err(|e| format!("set read timeout: {e}"))?;
                    stream
                        .set_write_timeout(Some(self.io_timeout))
                        .map_err(|e| format!("set write timeout: {e}"))?;
                    let _ = stream.set_nodelay(true);
                    self.conn = Some(BufReader::new(stream));
                    return Ok(());
                }
                Err(e) => last_err = format!("connect {addr}: {e}"),
            }
        }
        Err(last_err)
    }
}

impl std::fmt::Debug for ShardClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_shard_is_a_cluster_error() {
        // Bind-then-drop reserves a port that nothing is listening on.
        let port = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap().port()
        };
        let mut client = ShardClient::new(
            format!("127.0.0.1:{port}"),
            Duration::from_millis(200),
            Duration::from_millis(200),
        );
        let err = client
            .request(&serde_json::json!({ "cmd": "stats" }))
            .unwrap_err();
        assert!(matches!(err, SearchError::Cluster { .. }), "{err:?}");
        assert!(!client.is_connected());
    }

    #[test]
    fn round_trips_against_a_line_echo_server() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writer.write_all(line.as_bytes()).unwrap();
            }
        });
        let mut client = ShardClient::new(
            addr.to_string(),
            Duration::from_millis(500),
            Duration::from_millis(500),
        );
        for i in 0..2u64 {
            let request = serde_json::json!({ "cmd": "stats", "round": (i) });
            let response = client.request(&request).unwrap();
            assert_eq!(response, request);
        }
        assert!(client.is_connected());
        server.join().unwrap();
    }

    #[test]
    fn a_reply_that_outgrows_the_line_limit_is_a_cluster_error() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            // One byte past the limit, and no newline; the client stops
            // reading there, so later writes may fail.
            let mut writer = stream;
            let chunk = vec![b'x'; 1 << 20];
            for _ in 0..MAX_LINE_BYTES / chunk.len() {
                if writer.write_all(&chunk).is_err() {
                    return;
                }
            }
            let _ = writer.write_all(b"x");
        });
        let mut client = ShardClient::new(
            addr.to_string(),
            Duration::from_millis(500),
            Duration::from_secs(30),
        );
        let err = client
            .request(&serde_json::json!({ "cmd": "stats" }))
            .unwrap_err();
        assert!(matches!(err, SearchError::Cluster { .. }), "{err:?}");
        assert!(!client.is_connected());
        server.join().unwrap();
    }

    #[test]
    fn read_bounded_line_frames_lines_and_refuses_an_overlong_one() {
        let mut input: &[u8] = b"{\"a\":1}\n\xff\nlast";
        assert_eq!(
            read_bounded_line(&mut input).unwrap().as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(
            read_bounded_line(&mut input).unwrap().as_deref(),
            Some("\u{fffd}")
        );
        assert_eq!(
            read_bounded_line(&mut input).unwrap().as_deref(),
            Some("last")
        );
        assert_eq!(read_bounded_line(&mut input).unwrap(), None);

        let exact = [vec![b'x'; MAX_LINE_BYTES], b"\n".to_vec()].concat();
        let line = read_bounded_line(&mut exact.as_slice()).unwrap().unwrap();
        assert_eq!(line.len(), MAX_LINE_BYTES);
        let overlong = vec![b'x'; MAX_LINE_BYTES + 1];
        let err = read_bounded_line(&mut overlong.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

//! A minimal keep-alive HTTP/1.1 client for the load generator, the CI
//! gate, and the integration tests. Std-only, like everything else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response, framed by `Content-Length`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds when the server sent one.
    pub retry_after: Option<u64>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A persistent connection to one server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with a bounded timeout.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads one response on the persistent
    /// connection.
    ///
    /// The request's head and body leave in a single write on a
    /// `TCP_NODELAY` socket, so no part of it waits for the server's
    /// delayed ACK (about 40 ms per request under Nagle's algorithm).
    ///
    /// # Errors
    ///
    /// I/O failures and unframeable responses ([`io::ErrorKind::InvalidData`]).
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut wire = Vec::with_capacity(96 + body.len());
        write!(wire, "{method} {path} HTTP/1.1\r\nhost: defender\r\n")?;
        if !body.is_empty() || method == "POST" {
            write!(wire, "content-length: {}\r\n", body.len())?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(body);
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// POSTs a JSON body to `/v1/solve`.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn solve(&mut self, body: &str) -> io::Result<Response> {
        self.request("POST", "/v1/solve", body.as_bytes())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let head_end = loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before a full response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let body_start = head_end + 4;

        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;

        let mut content_length = 0usize;
        let mut retry_after = None;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            match name.as_str() {
                "content-length" => {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                "retry-after" => retry_after = value.parse().ok(),
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }

        while self.buf.len() < body_start + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Ok(Response {
            status,
            retry_after,
            keep_alive,
            body,
        })
    }
}

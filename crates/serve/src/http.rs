//! Minimal, strict HTTP/1.1 message framing over `std::io` streams.
//!
//! This is deliberately a subset: requests are `METHOD SP PATH SP
//! HTTP/1.x`, bodies are framed by `Content-Length` only (chunked
//! transfer coding is rejected, not buffered), and every bound —
//! header-block size, body size — is enforced *before* the bytes are
//! read, so a hostile peer cannot make the server allocate beyond its
//! configured limits. The reader is incremental: it consumes a stream
//! that may arrive one byte per `read` (TCP segmentation) and may carry
//! several pipelined requests back-to-back; leftover bytes after one
//! parsed request are retained for the next.
//!
//! Nothing in this module panics on network input; every malformed
//! message becomes a typed [`HttpError`] the caller renders as an error
//! response.

use std::io::{self, Read, Write};

/// Upper bound on the request-line + headers block, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/solve` (query strings are kept as-is).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// A request-level failure with the HTTP status and typed error kind it
/// must be reported as. `kind` feeds the `{"error":{"kind":...}}` JSON
/// body so clients can dispatch without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Stable machine-readable error kind.
    pub kind: &'static str,
    /// Human-oriented detail.
    pub message: String,
}

impl HttpError {
    /// 400 with a typed kind.
    #[must_use]
    pub fn bad_request(kind: &'static str, message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            kind,
            message: message.into(),
        }
    }
}

/// Incremental request reader holding leftover bytes between pipelined
/// requests on one connection.
#[derive(Debug, Default)]
pub struct RequestReader {
    buf: Vec<u8>,
    max_body: usize,
}

/// Outcome of [`RequestReader::next_request`].
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed (or timed out) cleanly between requests.
    Closed,
    /// The peer sent something unframeable; respond and close.
    Error(HttpError),
}

impl RequestReader {
    /// A reader enforcing `max_body` bytes of `Content-Length`.
    #[must_use]
    pub fn new(max_body: usize) -> RequestReader {
        RequestReader {
            buf: Vec::new(),
            max_body,
        }
    }

    /// Reads one complete request from `stream`, however the bytes are
    /// segmented, retaining any pipelined surplus for the next call.
    pub fn next_request(&mut self, stream: &mut impl Read) -> ReadOutcome {
        // Phase 1: accumulate the head (request line + headers). Each scan
        // resumes where the last one left off, less the three bytes a
        // terminator split across reads may have started in, so a head
        // that trickles in one byte per read costs linear time.
        let mut scanned = 0;
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf, scanned) {
                break end;
            }
            scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() > MAX_HEAD_BYTES {
                return ReadOutcome::Error(HttpError {
                    status: 431,
                    kind: "HeadersTooLarge",
                    message: format!("header block exceeds {MAX_HEAD_BYTES} bytes"),
                });
            }
            match fill(stream, &mut self.buf) {
                Ok(0) => {
                    return if self.buf.iter().all(|b| b.is_ascii_whitespace()) {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Error(HttpError::bad_request(
                            "TruncatedRequest",
                            "connection closed mid-request head",
                        ))
                    };
                }
                Ok(_) => {}
                Err(_) => return ReadOutcome::Closed,
            }
        };

        let head = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(h) => h.to_owned(),
            Err(_) => {
                return ReadOutcome::Error(HttpError::bad_request(
                    "BadRequest",
                    "request head is not valid UTF-8",
                ))
            }
        };
        let body_start = head_end + 4;

        let parsed = match parse_head(&head) {
            Ok(p) => p,
            Err(e) => return ReadOutcome::Error(e),
        };
        let content_length = match body_framing(&parsed) {
            Ok(len) => len,
            Err(e) => return ReadOutcome::Error(e),
        };
        if content_length > self.max_body {
            return ReadOutcome::Error(HttpError {
                status: 413,
                kind: "PayloadTooLarge",
                message: format!(
                    "content-length {content_length} exceeds the {} byte limit",
                    self.max_body
                ),
            });
        }

        // Phase 2: accumulate the body.
        while self.buf.len() < body_start + content_length {
            match fill(stream, &mut self.buf) {
                Ok(0) => {
                    return ReadOutcome::Error(HttpError::bad_request(
                        "TruncatedRequest",
                        "connection closed mid-request body",
                    ))
                }
                Ok(_) => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }

        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        ReadOutcome::Request(Request {
            method: parsed.method,
            path: parsed.path,
            body,
            keep_alive: parsed.keep_alive,
        })
    }
}

struct ParsedHead {
    method: String,
    path: String,
    keep_alive: bool,
    /// Lowercased `(name, value)` pairs.
    headers: Vec<(String, String)>,
}

/// The offset of the first `\r\n\r\n` that starts at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + start)
}

fn fill(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

fn parse_head(head: &str) -> Result<ParsedHead, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::bad_request("BadRequest", "empty request line"))?;
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::bad_request(
            "BadRequest",
            format!("malformed request line {request_line:?}"),
        ));
    };
    if parts.next().is_some() || method.is_empty() || path.is_empty() {
        return Err(HttpError::bad_request(
            "BadRequest",
            format!("malformed request line {request_line:?}"),
        ));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError {
                status: 505,
                kind: "VersionNotSupported",
                message: format!("unsupported protocol version {other:?}"),
            })
        }
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad_request(
                "BadRequest",
                format!("malformed header line {line:?}"),
            ));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let connection = header(&headers, "connection").map(str::to_ascii_lowercase);
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    Ok(ParsedHead {
        method: method.to_owned(),
        path: path.to_owned(),
        keep_alive,
        headers,
    })
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Decides how many body bytes the head promises.
fn body_framing(head: &ParsedHead) -> Result<usize, HttpError> {
    if header(&head.headers, "transfer-encoding").is_some() {
        return Err(HttpError {
            status: 501,
            kind: "TransferEncodingUnsupported",
            message: "transfer-encoding is not supported; frame with content-length".to_owned(),
        });
    }
    match header(&head.headers, "content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| {
            HttpError::bad_request("BadRequest", format!("unparseable content-length {v:?}"))
        }),
        None if head.method == "POST" || head.method == "PUT" => Err(HttpError {
            status: 411,
            kind: "LengthRequired",
            message: "POST requires a content-length header".to_owned(),
        }),
        None => Ok(0),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Writes one `application/json` response. `retry_after` becomes a
/// `Retry-After: <seconds>` header (admission control's backoff hint).
///
/// The head and the body leave in a single `write` call. Written apart,
/// the body would be a second small segment that Nagle's algorithm holds
/// until the peer's delayed ACK for the head, about 40 ms later.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u64>,
) -> io::Result<()> {
    let mut wire = Vec::with_capacity(128 + body.len());
    write!(
        wire,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    )?;
    if let Some(secs) = retry_after {
        write!(wire, "retry-after: {secs}\r\n")?;
    }
    if !keep_alive {
        wire.extend_from_slice(b"connection: close\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that feeds its script one fragment per `read` call —
    /// simulating arbitrary TCP segmentation — then reports EOF.
    struct Fragmented {
        fragments: Vec<Vec<u8>>,
        next: usize,
    }

    impl Fragmented {
        fn new<const N: usize>(fragments: [&[u8]; N]) -> Fragmented {
            Fragmented {
                fragments: fragments.iter().map(|f| f.to_vec()).collect(),
                next: 0,
            }
        }
    }

    impl Read for Fragmented {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.next >= self.fragments.len() {
                return Ok(0);
            }
            let frag = &self.fragments[self.next];
            assert!(frag.len() <= out.len(), "test fragments fit one read");
            out[..frag.len()].copy_from_slice(frag);
            self.next += 1;
            Ok(frag.len())
        }
    }

    fn read_one(reader: &mut RequestReader, stream: &mut impl Read) -> Request {
        match reader.next_request(stream) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn read_err(reader: &mut RequestReader, stream: &mut impl Read) -> HttpError {
        match reader.next_request(stream) {
            ReadOutcome::Error(e) => e,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_request_split_at_every_byte() {
        let wire = b"POST /v1/solve HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
        let fragments: Vec<Vec<u8>> = wire.iter().map(|&b| vec![b]).collect();
        let mut stream = Fragmented { fragments, next: 0 };
        let mut reader = RequestReader::new(1024);
        let req = read_one(&mut reader, &mut stream);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn splits_pipelined_requests_and_preserves_order() {
        let mut stream = Fragmented::new([
            b"GET /v1/healthz HTTP/1.1\r\n\r\nPOST /v1/solve HTTP/1.1\r\ncontent-len",
            b"gth: 2\r\n\r\nhiGET /v1/metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
        ]);
        let mut reader = RequestReader::new(1024);
        let first = read_one(&mut reader, &mut stream);
        assert_eq!(
            (first.method.as_str(), first.path.as_str()),
            ("GET", "/v1/healthz")
        );
        let second = read_one(&mut reader, &mut stream);
        assert_eq!(second.path, "/v1/solve");
        assert_eq!(second.body, b"hi");
        let third = read_one(&mut reader, &mut stream);
        assert_eq!(third.path, "/v1/metrics");
        assert!(!third.keep_alive);
        assert!(matches!(
            reader.next_request(&mut stream),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn oversized_content_length_is_rejected_before_the_body_arrives() {
        // The head promises 10 MiB; the reader must refuse at the
        // header, not buffer toward the promise.
        let mut stream = Fragmented::new([
            b"POST /v1/solve HTTP/1.1\r\ncontent-length: 10485760\r\n\r\n".as_slice(),
        ]);
        let mut reader = RequestReader::new(4096);
        let err = read_err(&mut reader, &mut stream);
        assert_eq!(err.status, 413);
        assert_eq!(err.kind, "PayloadTooLarge");
    }

    #[test]
    fn post_without_content_length_is_411() {
        let mut stream = Fragmented::new([b"POST /v1/solve HTTP/1.1\r\n\r\n".as_slice()]);
        let err = read_err(&mut RequestReader::new(1024), &mut stream);
        assert_eq!(err.status, 411);
        assert_eq!(err.kind, "LengthRequired");
    }

    #[test]
    fn truncated_body_is_a_bad_request_not_a_hang() {
        let mut stream = Fragmented::new([
            b"POST /v1/solve HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort".as_slice(),
        ]);
        let err = read_err(&mut RequestReader::new(1024), &mut stream);
        assert_eq!(err.status, 400);
        assert_eq!(err.kind, "TruncatedRequest");
    }

    #[test]
    fn unbounded_header_block_is_refused() {
        let mut fragments = vec![b"GET / HTTP/1.1\r\n".to_vec()];
        for i in 0..4096 {
            fragments.push(format!("x-filler-{i}: aaaaaaaaaaaaaaaa\r\n").into_bytes());
        }
        let mut stream = Fragmented { fragments, next: 0 };
        let err = read_err(&mut RequestReader::new(1024), &mut stream);
        assert_eq!(err.status, 431);
    }

    /// A request whose head, terminator included, is `len` bytes long,
    /// padded with one long header.
    fn head_of_len(len: usize) -> Vec<u8> {
        let fixed = "GET / HTTP/1.1\r\nx-pad: \r\n\r\n".len();
        let pad = "a".repeat(len - fixed);
        format!("GET / HTTP/1.1\r\nx-pad: {pad}\r\n\r\n").into_bytes()
    }

    #[test]
    fn a_full_size_head_trickled_one_byte_per_read_still_parses() {
        let wire = head_of_len(MAX_HEAD_BYTES);
        assert_eq!(wire.len(), MAX_HEAD_BYTES);
        let fragments: Vec<Vec<u8>> = wire.iter().map(|&b| vec![b]).collect();
        let mut stream = Fragmented { fragments, next: 0 };
        let req = read_one(&mut RequestReader::new(1024), &mut stream);
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/"));

        let wire = head_of_len(MAX_HEAD_BYTES + 16);
        let fragments: Vec<Vec<u8>> = wire.iter().map(|&b| vec![b]).collect();
        let mut stream = Fragmented { fragments, next: 0 };
        let err = read_err(&mut RequestReader::new(1024), &mut stream);
        assert_eq!(err.status, 431);
    }

    #[test]
    fn malformed_lines_and_versions_get_typed_errors() {
        for (wire, status) in [
            (&b"NONSENSE\r\n\r\n"[..], 400),
            (&b"GET /x HTTP/2.0\r\n\r\n"[..], 505),
            (&b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n"[..], 400),
            (
                &b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"[..],
                501,
            ),
            (
                &b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n"[..],
                400,
            ),
        ] {
            let mut stream = Fragmented::new([wire]);
            let err = read_err(&mut RequestReader::new(1024), &mut stream);
            assert_eq!(
                err.status,
                status,
                "wire: {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    /// Records every `write` call and accepts all the bytes offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        for (status, body, keep_alive, retry_after) in [
            (200, &b"{\"value\": \"2/5\"}"[..], true, None),
            (429, &b"{\"error\":{}}"[..], false, Some(2)),
        ] {
            let mut out = CountingWriter::default();
            write_response(&mut out, status, body, keep_alive, retry_after).unwrap();
            assert_eq!(out.writes, 1, "head and body must share one write");
            assert!(out.bytes.ends_with(body));
        }
    }

    #[test]
    fn response_writer_frames_and_hints_backoff() {
        let mut out = Vec::new();
        write_response(&mut out, 429, b"{\"error\":{}}", false, Some(2)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("content-length: 12\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":{}}"));
    }
}

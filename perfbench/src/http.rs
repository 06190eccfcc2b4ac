//! The benchmark's own HTTP/1.1 driver and the `defender serve` process
//! it drives.
//!
//! Each request goes out as one buffer on a `TCP_NODELAY` socket, so
//! the client adds no write-side stall of its own and what remains is
//! the server's behaviour. The load is a closed loop: every client owns
//! one keep-alive connection and sends its next request only after the
//! previous reply.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use defender_obs::json::{self, JsonValue};

/// Read timeout on every client socket: a cold request waits out the
/// batch window plus one solve, far below this.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a started server may take to answer `/v1/healthz`.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One reply and its latency.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// From the first request byte written to the last body byte read.
    pub latency: Duration,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes `wire` (a whole framed request) and reads one response.
    pub fn send(&mut self, wire: &[u8]) -> Result<Reply, String> {
        let t0 = Instant::now();
        self.stream
            .write_all(wire)
            .map_err(|e| format!("write: {e}"))?;
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_owned())?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| format!("no content-length in {head:?}"))?;
        let end = head_end + 4 + length;
        while self.buf.len() < end {
            self.fill()?;
        }
        let latency = t0.elapsed();
        let body = self.buf[head_end + 4..end].to_vec();
        self.buf.drain(..end);
        Ok(Reply {
            status,
            body,
            latency,
        })
    }

    /// A `GET` of `path`, returning the body of a 200.
    pub fn get(&mut self, path: &str) -> Result<Vec<u8>, String> {
        let reply =
            self.send(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())?;
        if reply.status != 200 {
            return Err(format!("GET {path} returned {}", reply.status));
        }
        Ok(reply.body)
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One completed request of a closed loop.
#[derive(Debug)]
pub struct Sample {
    /// Index of the planned request that was sent.
    pub plan: usize,
    /// Send time, relative to the loop's start.
    pub start: Duration,
    /// The reply.
    pub reply: Reply,
}

/// Result of one closed-loop phase.
#[derive(Debug)]
pub struct LoopResult {
    /// Every completed request, client by client.
    pub samples: Vec<Sample>,
    /// The common start; sample start times count from it.
    pub started: Instant,
    /// From the common start to the last reply.
    pub elapsed: Duration,
}

/// Runs `clients` closed-loop clients against `addr` for `duration`.
/// Client `c` sends `wire(next(c, i))` as its `i`-th request, and stops
/// at the deadline or when `next` returns `None`.
pub fn closed_loop<'a>(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    next: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    wire: &(dyn Fn(usize) -> &'a [u8] + Sync),
) -> Result<LoopResult, String> {
    let mut conns = (0..clients)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(clients + 1);
    let (per_client, t0) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut samples = Vec::new();
                    for i in 0.. {
                        if t0.elapsed() >= duration {
                            break;
                        }
                        let Some(plan) = next(c, i) else { break };
                        let start = t0.elapsed();
                        let reply = conn.send(wire(plan))?;
                        samples.push((start, plan, reply, Instant::now()));
                    }
                    Ok::<_, String>(samples)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect();
        (joined, t0)
    });
    let mut samples = Vec::new();
    let mut last = t0;
    for client in per_client {
        for (start, plan, reply, done) in client? {
            last = last.max(done);
            samples.push(Sample { plan, start, reply });
        }
    }
    Ok(LoopResult {
        samples,
        started: t0,
        elapsed: last.saturating_duration_since(t0),
    })
}

/// A running `defender serve` child process.
#[derive(Debug)]
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `defender serve` with default flags plus `--cache` and
    /// returns once `/v1/healthz` answers 200.
    pub fn start(defender: &Path, cache_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(defender)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", defender.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".to_owned());
        };
        // From here on, dropping `server` kills and reaps the child.
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the listening line: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first line from the server: {line:?}"))?;
        let deadline = Instant::now() + HEALTH_TIMEOUT;
        loop {
            if Conn::connect(server.addr)
                .and_then(|mut c| c.get("/v1/healthz"))
                .is_ok()
            {
                return Ok(server);
            }
            if Instant::now() >= deadline {
                return Err(format!("server at {} never became healthy", server.addr));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The server's process id, for `/proc`.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The `counters` object of `GET /v1/metrics`, looked up by name.
    pub fn counters(&self) -> Result<Counters, String> {
        let body = Conn::connect(self.addr)?.get("/v1/metrics")?;
        let text = String::from_utf8(body).map_err(|_| "metrics are not UTF-8".to_owned())?;
        let doc = json::parse(&text).map_err(|e| format!("metrics JSON: {e}"))?;
        let counters = doc
            .get("snapshot")
            .and_then(|s| s.get("counters"))
            .and_then(JsonValue::as_object)
            .ok_or("metrics have no snapshot.counters")?;
        Ok(Counters(
            counters
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
        ))
    }

    /// Asks the server to stop over HTTP and waits until it exits (it
    /// flushes its cache sidecar on the way out).
    pub fn shutdown(mut self) -> Result<(), String> {
        let wire = b"POST /v1/shutdown HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n";
        let asked = Conn::connect(self.addr).and_then(|mut c| c.send(wire));
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        asked.and(Err("server did not stop within 30 s".to_owned()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A counter snapshot of the server.
#[derive(Debug, Default)]
pub struct Counters(Vec<(String, u64)>);

impl Counters {
    /// The value of `name` (0 when the server never ticked it).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// `name` in `self` minus `name` in `earlier`.
    pub fn delta(&self, earlier: &Counters, name: &str) -> u64 {
        self.get(name).saturating_sub(earlier.get(name))
    }
}

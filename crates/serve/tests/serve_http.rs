//! End-to-end tests over real loopback TCP: request routing, the typed
//! error taxonomy on the wire, adversarial framing (split segments,
//! pipelining, early disconnects), and cache persistence across server
//! generations. Coalescing under concurrency is in `coalescing.rs`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use defender_obs::json::{self, JsonValue};
use defender_serve::client::Client;
use defender_serve::solver::NU_LIMIT;
use defender_serve::{ServeConfig, Server};

fn c5_body() -> String {
    let g6 = defender_graph::graph6::to_graph6(&defender_graph::generators::cycle(5));
    format!(r#"{{"graph6": "{g6}", "k": 1, "nu": 1}}"#)
}

fn test_server(config: ServeConfig) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind loopback")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(30)).expect("connect")
}

fn parse(body: &[u8]) -> json::JsonValue {
    json::parse(std::str::from_utf8(body).expect("utf8 body")).expect("json body")
}

fn str_of<'a>(doc: &'a JsonValue, field: &str) -> &'a str {
    doc.get(field).and_then(JsonValue::as_str).expect(field)
}

/// The raw `"judged": {...}` object text out of a `/v1/metrics` body
/// (it is flat, so the first closing brace ends it).
fn judged_raw(body: &[u8]) -> String {
    let text = std::str::from_utf8(body).expect("utf8 metrics");
    let start = text.find("\"judged\": {").expect("judged object");
    let end = text[start..].find('}').expect("judged close") + start;
    text[start..=end].to_owned()
}

fn petersen_body() -> String {
    let g6 = defender_graph::graph6::to_graph6(&defender_graph::generators::petersen());
    format!(r#"{{"graph6": "{g6}", "k": 1, "nu": 1}}"#)
}

#[test]
fn solves_over_the_wire_and_reports_cache_status() {
    let server = test_server(ServeConfig::default());
    let mut client = connect(&server);

    // C5 cold: a miss with the exact value 2/5 (paper Theorem 4.5 on C5).
    let response = client.solve(&c5_body()).expect("solve");
    assert_eq!(response.status, 200, "{}", response.text());
    let doc = parse(&response.body);
    assert_eq!(str_of(&doc, "cache"), "miss");
    assert_eq!(str_of(&doc, "value"), "2/5");
    assert_eq!(str_of(&doc, "defender_gain"), "2/5");
    assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(5));
    let pure = doc.get("pure_ne").expect("pure_ne");
    assert_eq!(pure.get("exists").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        pure.get("min_cover_size").and_then(JsonValue::as_u64),
        Some(3)
    );
    let eq = doc.get("equilibrium").expect("equilibrium");
    assert_eq!(
        eq.get("attacker")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(5),
        "C5's attacker equilibrium is uniform on all 5 vertices"
    );
    assert!(doc.get("best_response").is_some());

    // Same graph again on the same connection: a hit.
    let response = client.solve(&c5_body()).expect("solve again");
    let doc = parse(&response.body);
    assert_eq!(str_of(&doc, "cache"), "hit");

    // A relabeled C5 (edge list spelling a different vertex order):
    // isomorphic, so still a hit on the same canonical class.
    let iso = r#"{"edges": [[0,2],[2,4],[4,1],[1,3],[3,0]], "n": 5, "k": 1, "nu": 1}"#;
    let response = client.solve(iso).expect("isomorph");
    let doc = parse(&response.body);
    assert_eq!(str_of(&doc, "cache"), "hit", "isomorphs share one class");
    assert_eq!(str_of(&doc, "value"), "2/5");
}

/// Nagle's algorithm holds a second small segment until the peer's
/// delayed ACK, about 40 ms; a request or a reply split into head and
/// body writes pays that wait on every round trip of a keep-alive
/// connection, so 50 of them would take at least 2 s.
#[test]
fn keep_alive_round_trips_do_not_wait_for_delayed_acks() {
    let server = test_server(ServeConfig::default());
    let mut client = connect(&server);
    let body = c5_body();
    assert_eq!(client.solve(&body).expect("warm-up solve").status, 200);
    let start = std::time::Instant::now();
    for _ in 0..50 {
        let response = client.solve(&body).expect("solve");
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(str_of(&parse(&response.body), "cache"), "hit");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 warm keep-alive solves took {elapsed:?}"
    );
}

#[test]
fn typed_errors_cross_the_wire() {
    let server = test_server(ServeConfig::default());
    let mut client = connect(&server);
    let over_cap = format!(r#"{{"graph6": "DQo", "k": 1, "nu": {}}}"#, NU_LIMIT + 1);
    for (body, status, kind) in [
        (
            r#"{"graph6": "DQoA", "k": 1, "nu": 1}"#,
            400,
            "TrailingData",
        ),
        (
            r#"{"graph6": "DQp", "k": 1, "nu": 1}"#,
            400,
            "NonzeroPadding",
        ),
        (r#"{"edges": [[1,1]], "k": 1, "nu": 1}"#, 400, "BadEdgeList"),
        (r#"{"k": 1, "nu": 1}"#, 400, "BadRequest"),
        ("{", 400, "BadJson"),
        (r#"{"graph6": "~@MG", "k": 1, "nu": 1}"#, 422, "TooLarge"),
        (r#"{"graph6": "DQo", "k": 99, "nu": 1}"#, 422, "BadGame"),
        (r#"{"graph6": "DQo", "k": 1, "nu": 0}"#, 422, "BadGame"),
        (over_cap.as_str(), 422, "BadGame"),
    ] {
        let response = client.solve(body).expect("request");
        assert_eq!(response.status, status, "{body}");
        let doc = parse(&response.body);
        let err = doc.get("error").expect("error object");
        assert_eq!(str_of(err, "kind"), kind, "{body}");
    }
    // None of those rejects costs the server its solving.
    let response = client.solve(&c5_body()).expect("solve after rejects");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(str_of(&parse(&response.body), "cache"), "miss");

    // Routing errors.
    let response = client.request("GET", "/nope", b"").expect("404");
    assert_eq!(response.status, 404);
    let response = client.request("GET", "/v1/solve", b"").expect("405");
    assert_eq!(response.status, 405);
}

#[test]
fn oversized_bodies_get_413_and_close() {
    let server = test_server(ServeConfig {
        max_body: 256,
        ..ServeConfig::default()
    });
    let mut client = connect(&server);
    let huge = format!(
        r#"{{"edges": [{}], "k": 1, "nu": 1}}"#,
        (0..200)
            .map(|i| format!("[{i},{}]", i + 1))
            .collect::<Vec<_>>()
            .join(",")
    );
    let response = client.solve(&huge).expect("413 response");
    assert_eq!(response.status, 413);
    let doc = parse(&response.body);
    assert_eq!(
        str_of(doc.get("error").expect("error"), "kind"),
        "PayloadTooLarge"
    );
    assert!(
        !response.keep_alive,
        "unframeable request closes the connection"
    );
}

#[test]
fn split_segments_and_pipelining_work_over_tcp() {
    let server = test_server(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    // Dribble one request a few bytes per segment.
    let c5 = c5_body();
    let body = c5.as_bytes();
    let head = format!(
        "POST /v1/solve HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let wire: Vec<u8> = head
        .into_bytes()
        .into_iter()
        .chain(body.iter().copied())
        .collect();
    for chunk in wire.chunks(7) {
        stream.write_all(chunk).expect("write chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Then pipeline two more requests back-to-back in one segment.
    let mut doubled = Vec::new();
    for _ in 0..2 {
        doubled.extend_from_slice(&wire);
    }
    stream.write_all(&doubled).expect("write pipelined");

    let mut raw = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Read until all three response *bodies* arrive — breaking on the
    // third status line alone can cut the last body mid-flight, before
    // its cache field is on the wire.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while std::time::Instant::now() < deadline {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
        let text = String::from_utf8_lossy(&raw);
        if text.matches("\"cache\": \"").count() == 3 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 200 OK").count(),
        3,
        "three pipelined responses, in order: {text}"
    );
    assert_eq!(text.matches("\"cache\": \"miss\"").count(), 1);
    assert_eq!(text.matches("\"cache\": \"hit\"").count(), 2);
}

#[test]
fn early_disconnects_leave_the_server_healthy() {
    let server = test_server(ServeConfig::default());

    // Disconnect mid-head.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /v1/solve HT")
            .expect("partial write");
        drop(stream);
    }
    // Disconnect mid-body.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /v1/solve HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"graph")
            .expect("partial body");
        drop(stream);
    }
    // Disconnect without reading the response.
    {
        let mut client = connect(&server);
        // Petersen takes a moment to solve; drop before the answer.
        let _ = client.request("POST", "/v1/solve", petersen_body().as_bytes());
        // (request waits for the response; to abandon mid-response use a
        // raw socket instead)
    }
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let wire = format!(
            "POST /v1/solve HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            c5_body().len(),
            c5_body()
        );
        stream.write_all(wire.as_bytes()).expect("full request");
        drop(stream); // gone before the server responds
    }

    // The server still answers.
    std::thread::sleep(Duration::from_millis(50));
    let mut client = connect(&server);
    let response = client.request("GET", "/v1/healthz", b"").expect("healthz");
    assert_eq!(response.status, 200);
    let response = client.solve(&c5_body()).expect("solve after abuse");
    assert_eq!(response.status, 200);
}

#[test]
fn metrics_and_judged_counters_survive_warm_restart() {
    let dir = std::env::temp_dir().join(format!("defender-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Generation 1: cold solve, then graceful shutdown via the endpoint.
    let judged_cold = {
        let server = test_server(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut client = connect(&server);
        let response = client.solve(&c5_body()).expect("cold solve");
        assert_eq!(str_of(&parse(&response.body), "cache"), "miss");
        let metrics = client.request("GET", "/v1/metrics", b"").expect("metrics");
        let doc = parse(&metrics.body);
        let judged = doc.get("judged").expect("judged object");
        assert!(
            judged.as_object().is_some_and(|o| !o.is_empty()),
            "cold judged counters include the solve's deltas"
        );
        let response = client
            .request("POST", "/v1/shutdown", b"")
            .expect("shutdown");
        assert_eq!(response.status, 200);
        server.wait();
        judged_raw(&metrics.body)
    };

    // Generation 2: same cache dir — the class is warm on disk.
    let server = test_server(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = connect(&server);
    let response = client.solve(&c5_body()).expect("warm solve");
    assert_eq!(
        str_of(&parse(&response.body), "cache"),
        "hit",
        "persisted class must hit across generations"
    );
    let metrics = client.request("GET", "/v1/metrics", b"").expect("metrics");
    assert_eq!(
        judged_raw(&metrics.body),
        judged_cold,
        "judged counters are byte-identical cold vs. warm"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

//! Request coalescing over HTTP: M concurrent requests for one class
//! cost one solve.
//!
//! The test counts `cache.misses`, which ticks on the threads the
//! server solves on. No caller's counting scope covers those threads,
//! so it reads the process-global counter and gets this test binary to
//! itself.

use std::time::Duration;

use defender_obs::json::{self, JsonValue};
use defender_serve::client::Client;
use defender_serve::{ServeConfig, Server};

fn cache_misses() -> u64 {
    defender_obs::snapshot()
        .counter("cache.misses")
        .unwrap_or(0)
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_cache_miss() {
    defender_obs::enable();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let before = cache_misses();

    const M: usize = 8;
    // A racer that arrives after the solve settled probes a hit; every
    // other one leads the class or joins it.
    let g6 = defender_graph::graph6::to_graph6(&defender_graph::generators::petersen());
    let body = format!(r#"{{"graph6": "{g6}", "k": 1, "nu": 1}}"#);
    let statuses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..M)
            .map(|_| {
                let (server, body) = (&server, body.as_str());
                scope.spawn(move || {
                    let mut client =
                        Client::connect(server.addr(), Duration::from_secs(30)).expect("connect");
                    let response = client.solve(body).expect("solve");
                    assert_eq!(response.status, 200);
                    let text = std::str::from_utf8(&response.body).expect("utf8 body");
                    let doc = json::parse(text).expect("json body");
                    doc.get("cache")
                        .and_then(JsonValue::as_str)
                        .expect("cache")
                        .to_owned()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    assert_eq!(
        cache_misses() - before,
        1,
        "M concurrent identical requests must cost one solve; statuses: {statuses:?}"
    );
    assert_eq!(
        statuses.iter().filter(|s| s.as_str() == "miss").count(),
        1,
        "exactly one request leads the class: {statuses:?}"
    );
}

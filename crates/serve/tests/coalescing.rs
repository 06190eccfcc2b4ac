//! Request coalescing: M concurrent requests for one class cost one solve.
//!
//! Both tests count `cache.misses`, which ticks on the solver's batcher
//! thread and its worker pool. No caller's counting scope covers those
//! threads, so the tests read process-global counters. They therefore
//! get this test binary to themselves and take turns.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use defender_cache::EquilibriumCache;
use defender_core::model::TupleGame;
use defender_graph::generators;
use defender_obs::json::{self, JsonValue};
use defender_serve::api::CacheStatus;
use defender_serve::client::Client;
use defender_serve::solver::{Solver, SolverConfig};
use defender_serve::{ServeConfig, Server};

/// Serializes the tests: each diffs the global `cache.misses` cell.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cache_misses() -> u64 {
    defender_obs::snapshot()
        .counter("cache.misses")
        .unwrap_or(0)
}

#[test]
fn coalesces_concurrent_identical_classes_into_one_solve() {
    let _serial = serial();
    defender_obs::enable();
    let cache = Arc::new(EquilibriumCache::in_memory());
    let solver = Solver::start(
        Arc::clone(&cache),
        SolverConfig {
            batch_window: Duration::from_millis(30),
            ..SolverConfig::default()
        },
    );

    let before = cache_misses();
    const M: usize = 8;
    let statuses: Vec<CacheStatus> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..M)
            .map(|_| {
                let solver = &solver;
                scope.spawn(move || {
                    let graph = generators::petersen();
                    let game = TupleGame::new(&graph, 1, 1).unwrap();
                    solver.solve(&game).unwrap().status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // One solve for all M requests: exactly one cache miss...
    assert_eq!(
        cache_misses(),
        before + 1,
        "M concurrent identical-class requests must coalesce to one solve"
    );
    // ...and every request either led the miss or coalesced onto it
    // (a racer arriving after the solve resolves probes a hit).
    let misses = statuses.iter().filter(|s| **s == CacheStatus::Miss).count();
    assert_eq!(misses, 1, "statuses: {statuses:?}");
    assert_eq!(cache.len(), 1);
    assert_eq!(solver.served_classes(), 1);
    solver.shutdown();
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_cache_miss() {
    let _serial = serial();
    defender_obs::enable();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        // A generous window so every racer lands while the class is
        // still in flight.
        batch_window: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let before = cache_misses();

    const M: usize = 8;
    // Petersen: heavy enough that the solve outlasts request fan-in.
    let g6 = defender_graph::graph6::to_graph6(&generators::petersen());
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

//! Pins `/v1/solve` reply bodies byte for byte. `golden/solve_bodies.txt`
//! holds two blocks separated by a blank line; each block runs against a
//! fresh in-memory server and alternates request and reply lines. The
//! classes are C5, P6, K4 and the Petersen graph at k = 1 and 2, Q3 at
//! k = 2, C9 at k = 3, an 18-edge graph on 12 vertices at k = 3 and C7
//! at k = 1, whose canonical key `FaG\?` needs a JSON escape (ν = 2),
//! each spelled as graph6 and as a relabelled, shuffled edge
//! list. The first block sends the graph6 spelling first (a miss) and the
//! edge list second (a hit); the second block reverses the order. So the
//! pin covers the reply encoding, the relabel of a memoized equilibrium
//! onto the caller's labelling, and the best-response witness, whose
//! tie-break follows the caller's edge order.

use std::time::Duration;

use defender_serve::client::Client;
use defender_serve::{ServeConfig, Server};

const GOLDEN: &str = include_str!("golden/solve_bodies.txt");

#[test]
fn solve_replies_match_the_golden_bodies() {
    let mut exchanges = 0;
    for block in GOLDEN.split("\n\n") {
        let server = Server::start(ServeConfig::default()).expect("bind loopback");
        let mut client = Client::connect(server.addr(), Duration::from_secs(60)).expect("connect");
        let lines: Vec<&str> = block.lines().collect();
        for pair in lines.chunks(2) {
            let [request, expected] = pair else {
                panic!("a request line without its reply");
            };
            let reply = client.solve(request).expect("solve");
            assert_eq!(reply.status, 200, "{request}");
            assert!(
                reply.body == expected.as_bytes(),
                "reply to {request} changed:\n{}\nexpected:\n{expected}",
                reply.text()
            );
            exchanges += 1;
        }
        server.shutdown();
        server.wait();
    }
    assert_eq!(exchanges, 48, "12 classes, two spellings, two blocks");
}

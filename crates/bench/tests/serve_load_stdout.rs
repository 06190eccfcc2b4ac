//! `exp_serve_load` reports its verdict through its exit code, also when
//! its stdout closes early (as in `exp_serve_load … --shutdown | head -1`).

use std::process::{Command, Stdio};

use defender_serve::{ServeConfig, Server};

#[test]
fn a_closed_stdout_leaves_the_exit_code_to_the_verdict() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_exp_serve_load"))
        .args(["--addr", &addr, "--requests", "0", "--shutdown"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("exp_serve_load starts");
    // Close the read end at once: the load generator probes the server
    // over HTTP before it writes its first line.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("exp_serve_load exits");
    server.shutdown();
    server.wait();
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

//! The closed loop against a stand-in for `hxq` whose answers are known:
//! `echo` prints its arguments.

use std::path::Path;
use std::time::Instant;

use perfbench::client::{ClosedLoop, WARMUP_REQUESTS};
use perfbench::inputs::{Call, Request};
use perfbench::stats::error_rate;

fn echo_request(expected_stdout: &str) -> Request {
    Request {
        call: Call::StreamCount {
            file: "doc.xml".into(),
            path: "a".into(),
        },
        expected_stdout: expected_stdout.into(),
        nodes: 1,
        expected_store: None,
    }
}

/// Run 30 timed requests round-robin and return the loop's error rate.
fn loop_error_rate(requests: &[Request]) -> f64 {
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/negative-control");
    std::fs::create_dir_all(&scratch).unwrap();
    let spawner = Path::new(env!("CARGO_BIN_EXE_spawner"));
    let mut lp = ClosedLoop::start(spawner, Path::new("echo"), requests, &scratch).unwrap();
    let mut answered = 0;
    lp.run(Instant::now(), 30, &mut |_| {
        answered += 1;
        Ok(())
    })
    .unwrap();
    let r = lp.result;
    std::fs::remove_dir_all(&scratch).unwrap();
    assert_eq!((r.samples.len(), answered), (30, 30));
    assert_eq!(r.attempted, (30 + WARMUP_REQUESTS) as u64);
    assert!(r
        .samples
        .iter()
        .all(|s| s.latency_ns > 0 && s.peak_rss_kb > 0 && s.nodes == 1));
    error_rate(r.failed, r.attempted)
}

#[test]
fn negative_control_wrong_answer_raises_error_rate() {
    let right = echo_request("--stream --count --path a doc.xml\n");
    let wrong = echo_request("--stream --count --path a doc.xml\n7\n");
    assert_eq!(loop_error_rate(std::slice::from_ref(&right)), 0.0);
    // Every other request expects a wrong answer.
    assert_eq!(loop_error_rate(&[right, wrong]), 0.5);
}

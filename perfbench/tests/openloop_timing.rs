//! The open-loop generator times each request from when it was due, not
//! from when a busy client got round to sending it.

use sdea_perfbench::openloop;
use std::time::{Duration, Instant};

const INTERVAL: Duration = Duration::from_millis(5);
const SERVICE: Duration = Duration::from_millis(20);

#[test]
fn a_slow_sink_charges_its_stall_to_every_later_request() {
    // One client, a request due every 5 ms, each taking 20 ms: request i
    // cannot leave before the i earlier ones finished, so it goes out at
    // least 15 ms * i late and waits at least that plus its own service.
    let run = openloop::run(Instant::now(), 6, 1, INTERVAL, 1, |i| {
        std::thread::sleep(SERVICE);
        i
    });
    assert_eq!(run.sent.len(), 6);
    for (i, s) in run.sent.iter().enumerate() {
        assert_eq!((s.index, s.answer), (i, i), "results come back in schedule order");
        let backlog = (SERVICE - INTERVAL) * i as u32;
        assert!(s.lag >= backlog, "request {i}: lag {:?} < {backlog:?}", s.lag);
        assert!(s.latency >= s.lag + SERVICE, "request {i}: latency excludes the lag");
        assert!(s.latency >= backlog + SERVICE);
    }
    assert!(run.span >= SERVICE * 6 - INTERVAL, "span {:?}", run.span);
}

#[test]
fn a_burst_shares_one_due_time() {
    // Bursts of two on one client: the second request of each burst is due
    // with the first, so it is charged the first one's service time too.
    let run = openloop::run(Instant::now(), 4, 2, Duration::from_millis(100), 1, |_| {
        std::thread::sleep(SERVICE);
    });
    for pair in run.sent.chunks(2) {
        assert!(pair[1].lag >= SERVICE, "second of a burst waits for the first");
        assert!(pair[1].latency >= SERVICE * 2);
    }
}

//! The open-loop load generator.
//!
//! Requests arrive in bursts of `burst`: request `i` is due at
//! `start + (i / burst) * interval`, whatever happened to the requests
//! before it. A fixed pool of client threads (at most one
//! request in flight each) takes requests in due order, sleeps until each
//! is due, sends it, and waits for the answer. When every client is busy
//! at a due time, the request goes out late; its latency is still timed
//! from when it was due, so a stall is charged to every request it
//! delays, and the lateness itself is reported as send lag.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request's timing and the sink's answer to it.
#[derive(Debug)]
pub struct Sent<R> {
    /// Position in the schedule.
    pub index: usize,
    /// How late the generator sent it: actual send time minus due time.
    pub lag: Duration,
    /// From the due time to the moment the answer was complete.
    pub latency: Duration,
    /// What the sink returned.
    pub answer: R,
}

/// How long after the start of the schedule request `i` is due: bursts
/// of `burst` every `interval`.
pub fn due_offset(i: usize, burst: usize, interval: Duration) -> Duration {
    interval * u32::try_from(i / burst.max(1)).expect("schedule fits in u32")
}

/// The whole run: every request in schedule order, plus the wall time from
/// the first due time to the last completed answer.
#[derive(Debug)]
pub struct Run<R> {
    /// One entry per scheduled request, sorted by `index`.
    pub sent: Vec<Sent<R>>,
    /// First due time to last completion.
    pub span: Duration,
}

/// Sends `n` requests, `burst` of them due every `interval` from `start`
/// on, from `clients` threads, through `sink(index)`.
pub fn run<R, F>(
    start: Instant,
    n: usize,
    burst: usize,
    interval: Duration,
    clients: usize,
    sink: F,
) -> Run<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let due = |i: usize| start + due_offset(i, burst, interval);
    let mut parts: Vec<Vec<(Sent<R>, Instant)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let due_at = due(i);
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent_at = Instant::now();
                        let answer = sink(i);
                        let done = Instant::now();
                        mine.push((
                            Sent {
                                index: i,
                                lag: sent_at.saturating_duration_since(due_at),
                                latency: done.saturating_duration_since(due_at),
                                answer,
                            },
                            done,
                        ));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let last = parts.iter().flatten().map(|(_, done)| *done).max().unwrap_or(start);
    let mut sent: Vec<Sent<R>> = parts.drain(..).flatten().map(|(s, _)| s).collect();
    sent.sort_by_key(|s| s.index);
    Run { sent, span: last.saturating_duration_since(start) }
}

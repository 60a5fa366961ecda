//! The benchmark's own open-loop load driver.
//!
//! One connection, two threads: a sender that writes each request at its
//! scheduled instant whether or not earlier answers came back, and a
//! receiver that matches answers by correlation id. Latency is timed
//! from the instant a request was **due**, not from when the sender got
//! round to writing it, so a stalled generator or a full socket shows up
//! as latency of every request it delayed; how late the sender ran is
//! reported separately (`driver.late_p99_ms`). Built on the public
//! `Frame` API only.

use crate::stats::Samples;
use hf_net::{Frame, WireRequest, WireResponse};
use hf_tensor::rng::{stream, Rng, SeedStream};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Purpose key of the schedule's RNG stream.
const SCHEDULE_STREAM: u64 = 0x7065_7266_6c6f_6164; // "perfload"

/// Which users a schedule queries.
#[derive(Clone, Copy, Debug)]
pub struct UserMix {
    /// Users known to the artifact (`0..users`), drawn uniformly.
    pub users: u64,
    /// Share of requests for ids past the artifact's users (cold start).
    pub cold_frac: f64,
}

/// A deterministic request stream with its send instants.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Requests per second; `None` sends back to back (offered load
    /// above any capacity).
    pub rate: Option<f64>,
    users: Vec<u64>,
}

impl Schedule {
    /// `count` requests from `seed`. The same `(seed, phase, mix)` always
    /// gives the same users; `phase` keeps the phases of one run apart.
    pub fn new(seed: u64, phase: u64, rate: Option<f64>, count: usize, mix: UserMix) -> Self {
        let mut rng = stream(seed, SeedStream::Custom(SCHEDULE_STREAM ^ phase));
        let users = (0..count)
            .map(|_| {
                if rng.gen::<f64>() < mix.cold_frac {
                    mix.users + rng.gen_range(0..mix.users.max(1))
                } else {
                    rng.gen_range(0..mix.users.max(1))
                }
            })
            .collect();
        Self { rate, users }
    }

    /// A schedule of `duration` at a constant `rate`.
    pub fn at_rate(seed: u64, phase: u64, rate: f64, duration: Duration, mix: UserMix) -> Self {
        let count = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
        Self::new(seed, phase, Some(rate), count, mix)
    }

    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Offset of request `i` from the start of the phase. Requests are
    /// evenly spaced: a constant-rate open loop.
    pub fn due(&self, i: usize) -> Duration {
        match self.rate {
            Some(rate) => Duration::from_secs_f64(i as f64 / rate),
            None => Duration::ZERO,
        }
    }

    /// Request `i` (correlation id `i + 1`): a plain top-K query at the
    /// server's default `k`.
    pub fn request(&self, i: usize) -> WireRequest {
        WireRequest::new(i as u64 + 1, self.users[i])
    }
}

/// How a phase runs.
#[derive(Clone, Copy, Debug)]
pub struct PhaseOpts {
    /// Stop sending after this long even if the schedule has more.
    pub send_for: Duration,
    /// Wait this long after the last send for outstanding answers; what
    /// is still missing then counts as unanswered.
    pub drain: Duration,
    /// Keep every `capture_every`-th exchange for verification (`0` keeps
    /// none).
    pub capture_every: usize,
    /// Hold back new requests while this many are unanswered (`None`
    /// never holds back: a pure open loop).
    pub max_in_flight: Option<u64>,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseReport {
    pub scheduled: usize,
    pub sent: u64,
    pub answered: u64,
    pub errors: u64,
    /// Answer instant minus due instant, per answered request.
    pub latency_ms: Samples,
    /// The same latencies in the order the answers arrived.
    pub latency_seq_ms: Vec<f64>,
    /// Write instant minus due instant, per sent request.
    pub late_ms: Samples,
    /// When the phase started.
    pub started: Option<Instant>,
    /// Answer instants, seconds from the phase start.
    pub arrivals_s: Vec<f64>,
    /// Artifact version stamped on each answer, in arrival order.
    pub versions: Vec<u64>,
    /// Largest artifact version seen, and whether versions never went
    /// backwards on this connection.
    pub max_version: u64,
    pub versions_monotone: bool,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// Sampled `(request, answer)` exchanges.
    pub captured: Vec<(WireRequest, WireResponse)>,
    /// When the sender stopped, seconds from the phase start.
    pub send_end_s: f64,
}

impl PhaseReport {
    /// An empty report to [`absorb`](Self::absorb) phases into.
    pub fn merged() -> Self {
        Self {
            versions_monotone: true,
            ..Self::default()
        }
    }

    /// Folds a later phase on another connection into this one: counts,
    /// latencies (in order), lateness, bytes and captured exchanges.
    /// Answer instants are relative to each phase, so they are dropped.
    pub fn absorb(&mut self, other: PhaseReport) {
        self.scheduled += other.scheduled;
        self.sent += other.sent;
        self.answered += other.answered;
        self.errors += other.errors;
        self.latency_ms.extend(&other.latency_ms);
        self.latency_seq_ms.extend(other.latency_seq_ms);
        self.late_ms.extend(&other.late_ms);
        self.versions_monotone &= other.versions_monotone;
        self.max_version = self.max_version.max(other.max_version);
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        self.captured.extend(other.captured);
    }

    /// Scheduled requests that failed: not sent, error-framed, or
    /// unanswered. A back-to-back phase schedules only what it sends.
    pub fn failed(&self, attempted: u64) -> u64 {
        attempted - self.answered.min(attempted)
    }

    /// Answers per second from the first answer to the last, for a
    /// phase that kept the server saturated throughout (including the
    /// drain of what was in flight when sending stopped). The server
    /// answers in batches, so the answers arriving with the first one
    /// (within a millisecond) were earned before the clock started and
    /// are not counted.
    pub fn throughput(&self) -> f64 {
        let (Some(&first), Some(&last)) = (self.arrivals_s.first(), self.arrivals_s.last()) else {
            return 0.0;
        };
        if last - first <= 0.0 {
            return 0.0;
        }
        let with_first = self
            .arrivals_s
            .iter()
            .filter(|&&t| t - first < 1e-3)
            .count();
        (self.arrivals_s.len() - with_first) as f64 / (last - first)
    }
}

/// Waits for `due` without sleeping: on a virtual machine an idle CPU
/// can take milliseconds to wake from a timed sleep, which would make
/// the generator late by as much. Yielding keeps the receiver thread,
/// which shares the driver CPU, running promptly.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Runs one phase of `schedule` over a fresh connection to `addr`.
pub fn run_phase(addr: &str, schedule: &Schedule, opts: PhaseOpts) -> std::io::Result<PhaseReport> {
    let send_half = TcpStream::connect(addr)?;
    send_half.set_nodelay(true)?;
    let mut recv_half = send_half.try_clone()?;
    recv_half.set_read_timeout(Some(Duration::from_millis(20)))?;

    let sent = AtomicU64::new(0);
    let settled = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let start = Instant::now();

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut send_half = send_half;
            let mut late = Samples::new();
            let mut bytes = 0u64;
            let mut frame = Vec::with_capacity(64);
            for i in 0..schedule.len() {
                if let Some(window) = opts.max_in_flight {
                    while sent.load(Ordering::SeqCst) - settled.load(Ordering::SeqCst) >= window {
                        if start.elapsed() >= opts.send_for {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                let due = start + schedule.due(i);
                wait_until(due);
                let now = Instant::now();
                if now.duration_since(start) >= opts.send_for {
                    break;
                }
                let payload = Frame::Request(schedule.request(i)).encode();
                frame.clear();
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(&payload);
                if send_half.write_all(&frame).is_err() {
                    break;
                }
                late.push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                bytes += frame.len() as u64;
                sent.fetch_add(1, Ordering::SeqCst);
            }
            sender_done.store(true, Ordering::SeqCst);
            (late, bytes, start.elapsed().as_secs_f64())
        });

        let mut report = PhaseReport {
            scheduled: schedule.len(),
            started: Some(start),
            versions_monotone: true,
            ..PhaseReport::default()
        };
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
        let mut chunk = vec![0u8; 1 << 16];
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let done = sender_done.load(Ordering::SeqCst);
            if done {
                let sent_now = sent.load(Ordering::SeqCst);
                if report.answered + report.errors >= sent_now {
                    break;
                }
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + opts.drain);
                if Instant::now() >= deadline {
                    break;
                }
            }
            let n = match recv_half.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let now = Instant::now();
            buf.extend_from_slice(&chunk[..n]);
            let mut at = 0;
            while buf.len() - at >= 4 {
                let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
                if buf.len() - at - 4 < len {
                    break;
                }
                let frame = Frame::decode(&buf[at + 4..at + 4 + len]);
                report.response_bytes += 4 + len as u64;
                at += 4 + len;
                match frame {
                    Ok(Frame::Response(response)) => {
                        let i = (response.id - 1) as usize;
                        let offset = now.duration_since(start);
                        report.arrivals_s.push(offset.as_secs_f64());
                        report.versions.push(response.version);
                        if schedule.rate.is_some() {
                            let ms = offset.saturating_sub(schedule.due(i)).as_secs_f64() * 1e3;
                            report.latency_ms.push(ms);
                            report.latency_seq_ms.push(ms);
                        }
                        if response.version < report.max_version {
                            report.versions_monotone = false;
                        }
                        report.max_version = report.max_version.max(response.version);
                        report.answered += 1;
                        if opts.capture_every > 0 && i.is_multiple_of(opts.capture_every) {
                            report.captured.push((schedule.request(i), response));
                        }
                    }
                    Ok(Frame::Error(_)) | Err(_) => report.errors += 1,
                    Ok(_) => {}
                }
            }
            buf.drain(..at);
            settled.store(report.answered + report.errors, Ordering::SeqCst);
        }
        let (late, bytes, send_end) = sender.join().expect("sender thread panicked");
        report.sent = sent.load(Ordering::SeqCst);
        report.late_ms = late;
        report.request_bytes = bytes;
        report.send_end_s = send_end;
        let _ = recv_half.shutdown(std::net::Shutdown::Both);
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: UserMix = UserMix {
        users: 1000,
        cold_frac: 0.05,
    };

    fn users(s: &Schedule) -> Vec<u64> {
        (0..s.len()).map(|i| s.request(i).user).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Schedule::at_rate(7, 1, 200.0, Duration::from_secs(2), MIX);
        let b = Schedule::at_rate(7, 1, 200.0, Duration::from_secs(2), MIX);
        assert_eq!(a.len(), 400);
        assert_eq!(users(&a), users(&b));
        for i in [0, 1, 399] {
            assert_eq!(a.due(i), b.due(i));
            assert_eq!(a.request(i), b.request(i));
        }
    }

    #[test]
    fn seeds_and_phases_give_different_streams() {
        let a = Schedule::at_rate(7, 1, 200.0, Duration::from_secs(2), MIX);
        let b = Schedule::at_rate(8, 1, 200.0, Duration::from_secs(2), MIX);
        let c = Schedule::at_rate(7, 2, 200.0, Duration::from_secs(2), MIX);
        assert_ne!(users(&a), users(&b));
        assert_ne!(users(&a), users(&c));
    }

    #[test]
    fn due_instants_are_evenly_spaced() {
        let s = Schedule::at_rate(1, 0, 500.0, Duration::from_secs(1), MIX);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(250), Duration::from_millis(500));
        let b2b = Schedule::new(1, 0, None, 10, MIX);
        assert_eq!(b2b.due(9), Duration::ZERO);
    }

    #[test]
    fn cold_ids_come_at_the_requested_share() {
        let s = Schedule::new(3, 0, Some(1.0), 20_000, MIX);
        let cold = users(&s).iter().filter(|&&u| u >= MIX.users).count();
        let share = cold as f64 / s.len() as f64;
        assert!((0.04..0.06).contains(&share), "cold share {share}");
        assert!(users(&s).iter().all(|&u| u < 2 * MIX.users));
    }

    #[test]
    fn throughput_counts_whole_batches_from_the_first_answer() {
        // Batches of four answers every 10 ms, the first at 5 ms.
        let arrivals_s: Vec<f64> = (0..20)
            .flat_map(|b| (0..4).map(move |i| 0.005 + 0.010 * b as f64 + 1e-5 * i as f64))
            .collect();
        let r = PhaseReport {
            arrivals_s,
            ..PhaseReport::default()
        };
        let rate = r.throughput();
        assert!((rate - 400.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn accounting_of_a_phase() {
        let r = PhaseReport {
            sent: 10,
            answered: 7,
            errors: 2,
            ..PhaseReport::default()
        };
        // Twelve were scheduled; two were never sent.
        assert_eq!(r.failed(12), 5);
    }
}

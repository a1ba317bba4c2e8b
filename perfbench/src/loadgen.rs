//! Open-loop load generation over the framed TCP protocol.
//!
//! One generator thread sends every planned request at its scheduled
//! time, whether or not earlier ones were answered, over a fixed set of
//! pipelined connections (the server answers each connection's frames in
//! order). A reader per connection only timestamps arriving frames; it
//! sleeps in the kernel between them, so it costs no CPU while idle and
//! its timestamps are not delayed by the generator's own sleeps.
//! Latency is counted from each request's *scheduled* send time, so a
//! stall — in the server or in the generator — shows in every request it
//! delays.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bsl_serve::protocol::{encode_request, MAX_FRAME};
use bsl_serve::Request;
use rand::rngs::StdRng;
use rand::Rng;

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Scheduled send time, ns since the run's origin.
    pub due_ns: u64,
    /// Connection index it is sent on.
    pub conn: usize,
    /// The request.
    pub req: Request,
}

/// What happened to one planned request.
#[derive(Clone, Debug, Default)]
pub struct Sent {
    /// When the generator wrote it, ns since the origin.
    pub sent_ns: u64,
    /// When its response frame arrived (`None`: never answered).
    pub done_ns: Option<u64>,
    /// The response payload.
    pub payload: Option<Vec<u8>>,
}

/// Poisson arrival times (ns since the origin) at `rate` per second over
/// `[start_ns, start_ns + secs)`.
pub fn poisson_arrivals(rng: &mut StdRng, rate: f64, start_ns: u64, secs: f64) -> Vec<u64> {
    let end = start_ns as f64 + secs * 1e9;
    let mut t = start_ns as f64;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 8);
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

/// Per-request accounting of an open-loop phase, in request order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Accounting {
    /// Latency from the scheduled send time, ms (`None`: never answered).
    pub latency_ms: Vec<Option<f64>>,
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
}

/// Accounts a phase: latency is `done − due`, never `done − sent`, so
/// time a request spent waiting to be sent (generator lateness) or
/// queued behind a stalled one counts against it.
pub fn account(due_ns: &[u64], sent: &[Sent]) -> Accounting {
    let ms = |ns: u64| ns as f64 * 1e-6;
    Accounting {
        latency_ms: due_ns
            .iter()
            .zip(sent)
            .map(|(&due, s)| s.done_ns.map(|done| ms(done.saturating_sub(due))))
            .collect(),
        lag_ms: due_ns
            .iter()
            .zip(sent)
            .map(|(&due, s)| ms(s.sent_ns.saturating_sub(due)))
            .collect(),
    }
}

/// Splits complete frames off the front of `buf`.
fn take_frames(buf: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) -> std::io::Result<()> {
    let mut pos = 0;
    while buf.len() - pos >= 4 {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::new(ErrorKind::InvalidData, "oversize frame"));
        }
        if buf.len() - pos - 4 < len {
            break;
        }
        out.push(buf[pos + 4..pos + 4 + len].to_vec());
        pos += 4 + len;
    }
    buf.drain(..pos);
    Ok(())
}

/// Reads `expected` response frames from `stream`, timestamping each by
/// the read that completed it, until done, EOF, an error, or `give_up`.
fn read_responses(
    mut stream: TcpStream,
    expected: usize,
    origin: Instant,
    give_up: Instant,
) -> Vec<(u64, Vec<u8>)> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut got = Vec::with_capacity(expected);
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut frames = Vec::new();
    while got.len() < expected {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let t = origin.elapsed().as_nanos() as u64;
                buf.extend_from_slice(&chunk[..n]);
                if take_frames(&mut buf, &mut frames).is_err() {
                    break;
                }
                got.extend(frames.drain(..).map(|f| (t, f)));
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= give_up {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    got
}

/// Persistent pipelined connections to one server, reused across
/// phases (as long-lived clients would be).
pub struct Conns {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
}

impl Conns {
    /// Opens `n` connections to `addr`.
    pub fn open(addr: SocketAddr, n: usize) -> std::io::Result<Self> {
        let streams = (0..n).map(|_| connect(addr)).collect::<std::io::Result<_>>()?;
        Ok(Self { addr, streams })
    }
}

impl Drop for Conns {
    fn drop(&mut self) {
        for s in &self.streams {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Runs one open-loop phase of `plan` (sorted by `due_ns`) over `conns`.
/// Requests still unanswered `drain` after the last scheduled send count
/// as missing, and their connection is replaced (a late answer must not
/// be taken for the next phase's).
pub fn run_open_loop(
    conns: &mut Conns,
    plan: &[Planned],
    origin: Instant,
    drain: Duration,
) -> std::io::Result<Vec<Sent>> {
    // Encode everything up front so the generator only sleeps and writes.
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .map(|p| {
            let payload = encode_request(&p.req);
            let mut f = Vec::with_capacity(4 + payload.len());
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            f.extend_from_slice(&payload);
            f
        })
        .collect();
    let n_conns = conns.streams.len();
    let last_due = plan.last().map_or(0, |p| p.due_ns);
    let give_up = origin + Duration::from_nanos(last_due) + drain;
    let mut sent = vec![Sent::default(); plan.len()];

    let per_conn: Vec<Vec<usize>> =
        (0..n_conns).map(|c| (0..plan.len()).filter(|&i| plan[i].conn == c).collect()).collect();
    let streams = &mut conns.streams;
    let received: Vec<Vec<(u64, Vec<u8>)>> = std::thread::scope(|scope| {
        let mut readers = Vec::with_capacity(n_conns);
        for (c, idx) in streams.iter().zip(&per_conn) {
            let stream = c.try_clone()?;
            let expected = idx.len();
            readers.push(scope.spawn(move || read_responses(stream, expected, origin, give_up)));
        }

        // The generator sleeps until each due time. Sleeping overshoots by
        // tens of µs (counted as lag, and in latency); spinning instead
        // would take a core from a 2-core server.
        let mut write_failed = vec![false; n_conns];
        for (i, p) in plan.iter().enumerate() {
            let due = origin + Duration::from_nanos(p.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if write_failed[p.conn] {
                continue;
            }
            sent[i].sent_ns = origin.elapsed().as_nanos() as u64;
            if streams[p.conn].write_all(&frames[i]).is_err() {
                write_failed[p.conn] = true;
            }
        }
        Ok::<_, std::io::Error>(
            readers.into_iter().map(|h| h.join().expect("reader thread panicked")).collect(),
        )
    })?;
    for (c, (idx, got)) in per_conn.iter().zip(received).enumerate() {
        if got.len() < idx.len() {
            let _ = streams[c].shutdown(std::net::Shutdown::Both);
            streams[c] = connect(conns.addr)?;
        }
        for (&i, (t, payload)) in idx.iter().zip(got) {
            sent[i].done_ns = Some(t);
            sent[i].payload = Some(payload);
        }
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A pipelined connection served in order, one request at a time, by
    /// a server taking `service_ns` per request plus `stall_ns` extra on
    /// request `stall_at`. Returns completion times.
    fn serve_in_order(
        sent_ns: &[u64],
        service_ns: u64,
        stall_at: usize,
        stall_ns: u64,
    ) -> Vec<u64> {
        let mut free = 0u64;
        sent_ns
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let start = free.max(s);
                free = start + service_ns + if i == stall_at { stall_ns } else { 0 };
                free
            })
            .collect()
    }

    fn sent_records(sent_ns: &[u64], done: &[u64]) -> Vec<Sent> {
        sent_ns
            .iter()
            .zip(done)
            .map(|(&s, &d)| Sent { sent_ns: s, done_ns: Some(d), payload: None })
            .collect()
    }

    #[test]
    fn a_stalled_response_inflates_later_requests() {
        // Requests every 1 ms, 100 µs of service each; request 10 stalls
        // the server for 5 ms, so the requests queued behind it wait too.
        let due: Vec<u64> = (0..40).map(|i| i * 1_000_000).collect();
        let done = serve_in_order(&due, 100_000, 10, 5_000_000);
        let a = account(&due, &sent_records(&due, &done));
        let lat: Vec<f64> = a.latency_ms.iter().map(|l| l.expect("all answered")).collect();
        assert!((lat[9] - 0.1).abs() < 1e-9, "before the stall: service time only");
        assert!((lat[10] - 5.1).abs() < 1e-9, "the stalled request itself");
        // Request 11 was due 1 ms after 10 but is answered after the stall.
        assert!((lat[11] - 4.2).abs() < 1e-9);
        assert!(lat[12] > 3.0 && lat[14] > 1.0);
        assert!((lat[20] - 0.1).abs() < 1e-9, "drained by then");
    }

    #[test]
    fn generator_lateness_counts_against_latency() {
        // The generator stalls for 3 ms before request 5 and then sends
        // 5, 6, 7 back to back. Timed from the send (closed-loop style)
        // they look fast; timed from when they were due they do not.
        let due: Vec<u64> = (0..10).map(|i| i * 1_000_000).collect();
        let sent: Vec<u64> = due
            .iter()
            .enumerate()
            .map(|(i, &d)| if (5..8).contains(&i) { 8_000_000 } else { d })
            .collect();
        let done: Vec<u64> = sent.iter().map(|s| s + 100_000).collect();
        let a = account(&due, &sent_records(&sent, &done));
        assert!((a.lag_ms[5] - 3.0).abs() < 1e-9);
        assert!((a.latency_ms[5].unwrap() - 3.1).abs() < 1e-9);
        assert!((a.latency_ms[7].unwrap() - 1.1).abs() < 1e-9);
        let from_send: Vec<f64> =
            sent.iter().zip(&done).map(|(s, d)| (d - s) as f64 * 1e-6).collect();
        assert!((from_send[5] - 0.1).abs() < 1e-9, "send-relative timing hides the stall");
    }

    #[test]
    fn unanswered_requests_are_missing_not_fast() {
        let due = [0, 1_000_000];
        let sent = vec![
            Sent { sent_ns: 0, done_ns: Some(200_000), payload: None },
            Sent { sent_ns: 1_000_000, done_ns: None, payload: None },
        ];
        let a = account(&due, &sent);
        assert!((a.latency_ms[0].expect("answered") - 0.2).abs() < 1e-9);
        assert_eq!(a.latency_ms[1], None, "missing, not counted as fast");
    }

    #[test]
    fn poisson_arrivals_match_the_rate_and_window() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = poisson_arrivals(&mut rng, 1000.0, 5_000_000, 2.0);
        assert!((1800..2200).contains(&t.len()), "{} arrivals", t.len());
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(t[0] >= 5_000_000 && *t.last().unwrap() < 2_005_000_000);
        let mut again = StdRng::seed_from_u64(7);
        assert_eq!(t, poisson_arrivals(&mut again, 1000.0, 5_000_000, 2.0), "seeded");
    }

    #[test]
    fn frames_split_across_reads_are_reassembled() {
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], b"", b"hello"] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for byte in wire {
            buf.push(byte);
            take_frames(&mut buf, &mut frames).unwrap();
        }
        assert_eq!(frames, vec![b"abc".to_vec(), vec![], b"hello".to_vec()]);
        assert!(buf.is_empty());
    }
}

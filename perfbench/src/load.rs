//! The open-loop load generator.
//!
//! A schedule fixes, before the run, when each request is due and on
//! which keep-alive connection it goes. One thread per connection writes
//! each of its requests at its due time — pipelined behind any response
//! still outstanding — and timestamps responses as they arrive. Latency
//! is charged from the due time, so a stall is charged to every request
//! it delays, and the generator reports how late it wrote.
//!
//! The HTTP/1.1 response parsing here is the benchmark's own, so the
//! check does not lean on the client code of the system it measures.

use crate::spans::{Recorder, ROOT};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response that has not arrived this long after the last request was
/// written counts as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Reconnects one connection may make before its remaining requests
/// count as failed.
const MAX_RECONNECTS: u32 = 1000;

/// One scheduled request.
#[derive(Clone)]
pub struct Planned {
    /// Due time, nanoseconds after the schedule starts.
    pub at_ns: u64,
    /// Connection index.
    pub conn: usize,
    /// Caller-defined request class (e.g. read vs grid).
    pub class: u8,
    /// Caller-defined key, handed back to the output check.
    pub key: u32,
    /// The full request bytes.
    pub wire: Arc<[u8]>,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The request's class.
    pub class: u8,
    /// The request's key.
    pub key: u32,
    /// Due time, nanoseconds after the schedule start.
    pub due_ns: u64,
    /// How late the request was written, nanoseconds.
    pub late_ns: u64,
    /// Due time to complete response, nanoseconds (0 if it failed).
    pub latency_ns: u64,
    /// Response status; 0 when the request could not be written or no
    /// response arrived.
    pub status: u16,
    /// Status 200 with exactly the expected body.
    pub ok: bool,
}

/// Samples of one class.
pub fn of_class(samples: &[Sample], class: u8) -> Vec<Sample> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .copied()
        .collect()
}

/// Latencies in microseconds of the successful samples.
pub fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect()
}

/// The body checker: `(class, key, status, body) -> correct`.
pub type Check<'a> = dyn Fn(u8, u32, u16, &[u8]) -> bool + Sync + 'a;

struct Pending {
    class: u8,
    key: u32,
    due_ns: u64,
    late_ns: u64,
    wire: Arc<[u8]>,
}

/// Runs `schedule` (sorted by `at_ns`) against `addr` over `conns`
/// keep-alive connections and returns one sample per request, in no
/// particular order. Each response is recorded as a `load.request` span
/// from its due time while `rec` is enabled.
pub fn drive(
    addr: SocketAddr,
    conns: usize,
    schedule: &[Planned],
    check: &Check<'_>,
    rec: &Recorder,
) -> Result<Vec<Sample>, String> {
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        s.set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        streams.push(s);
    }
    // A short lead-in lets every connection thread start before the
    // first due time.
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<&Planned> = schedule.iter().filter(|p| p.conn == c).collect();
                scope.spawn(move || {
                    connection_loop(addr, stream, Pace::Open(&mine), start, check, rec)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(schedule.len());
        for h in handles {
            out.extend(
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?,
            );
        }
        Ok(out)
    })
}

/// Picks the `n`th request of connection `conn` in a closed loop:
/// `(class, key, wire)`.
pub type Pick<'a> = dyn Fn(usize, u64) -> (u8, u32, Arc<[u8]>) + Sync + 'a;

/// Runs a closed loop against `addr` for `secs`: each of `conns`
/// keep-alive connections keeps `depth` requests written and unanswered,
/// writing the next as soon as a response arrives, until the time is up;
/// then it waits for the answers still owed. Returns one sample per
/// request, with its due time the moment it was written.
pub fn drive_closed(
    addr: SocketAddr,
    conns: usize,
    depth: usize,
    secs: f64,
    pick: &Pick<'_>,
    check: &Check<'_>,
    rec: &Recorder,
) -> Result<Vec<Sample>, String> {
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        streams.push(reopen(addr).ok_or_else(|| format!("cannot connect to {addr}"))?);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let stop_ns = (secs * 1e9) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let pace = Pace::Closed {
                    conn: c,
                    depth,
                    stop_ns,
                    pick,
                };
                scope.spawn(move || connection_loop(addr, stream, pace, start, check, rec))
            })
            .collect();
        let mut out = Vec::new();
        for h in handles {
            out.extend(
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?,
            );
        }
        Ok(out)
    })
}

/// When a connection writes its requests.
enum Pace<'a> {
    /// At their scheduled due times.
    Open(&'a [&'a Planned]),
    /// As soon as fewer than `depth` are unanswered, until `stop_ns`
    /// after the start; `conn` is the connection's index for `pick`.
    Closed {
        conn: usize,
        depth: usize,
        stop_ns: u64,
        pick: &'a Pick<'a>,
    },
}

fn failed(class: u8, key: u32, due_ns: u64, late_ns: u64) -> Sample {
    Sample {
        class,
        key,
        due_ns,
        late_ns,
        latency_ns: 0,
        status: 0,
        ok: false,
    }
}

/// Drives one connection: writes each request at its due time and reads
/// responses as they arrive, matching them in order. When the server
/// closes the connection (its per-connection request cap), the loop
/// reconnects and re-sends every request still unanswered, as an
/// HTTP/1.1 client must for pipelined requests. A reset counts as such
/// a close: a server that closes with pipelined requests still unread
/// resets the connection.
///
/// The loop never sleeps. On a virtual machine a halted vCPU can take
/// milliseconds to wake, and a generator that sleeps between requests
/// lets the guest halt: those wake-ups then dominate every latency and
/// swamp what the server does. The loop yields instead, which keeps its
/// processor awake yet hands it to any server thread that is runnable.
fn connection_loop(
    addr: SocketAddr,
    mut stream: TcpStream,
    pace: Pace<'_>,
    start: Instant,
    check: &Check<'_>,
    rec: &Recorder,
) -> Vec<Sample> {
    let mine: &[&Planned] = match pace {
        Pace::Open(mine) => mine,
        Pace::Closed { .. } => &[],
    };
    // Whether requests remain to be written at `now_ns`.
    let more = |next: usize, now_ns: u64| match pace {
        Pace::Open(_) => next < mine.len(),
        Pace::Closed { stop_ns, .. } => now_ns < stop_ns,
    };
    let mut out = Vec::with_capacity(mine.len());
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut outbuf: Vec<u8> = Vec::new();
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut next = 0;
    let mut last_progress = Instant::now();
    let mut closed = false;
    let mut reconnect = false;
    let mut reconnects = 0;
    let mut now_ns = 0;
    while !closed && (more(next, now_ns) || !queue.is_empty()) {
        // Read everything that has arrived.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    reconnect = true;
                    break;
                }
                Ok(n) => {
                    let arrived = Instant::now();
                    last_progress = arrived;
                    buf.extend_from_slice(&chunk[..n]);
                    let mut used = 0;
                    while let Some((status, body_at, end, close)) = parse_response(&buf[used..]) {
                        let Some(p) = queue.pop_front() else {
                            // A response nobody asked for.
                            closed = true;
                            break;
                        };
                        let body = &buf[used + body_at..used + end];
                        let ok = status == 200 && check(p.class, p.key, status, body);
                        let due = start + Duration::from_nanos(p.due_ns);
                        rec.record("load.request", ROOT, u64::from(p.key), due, arrived);
                        out.push(Sample {
                            class: p.class,
                            key: p.key,
                            due_ns: p.due_ns,
                            late_ns: p.late_ns,
                            latency_ns: arrived.saturating_duration_since(due).as_nanos() as u64,
                            status,
                            ok,
                        });
                        used += end;
                        if close {
                            reconnect = true;
                            break;
                        }
                    }
                    buf.drain(..used);
                    if reconnect {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_reset(&e) => {
                    reconnect = true;
                    break;
                }
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if reconnect && !closed {
            reconnect = false;
            reconnects += 1;
            match reopen(addr) {
                Some(fresh) if reconnects <= MAX_RECONNECTS => {
                    stream = fresh;
                    buf.clear();
                    outbuf.clear();
                    for p in &queue {
                        outbuf.extend_from_slice(&p.wire);
                    }
                }
                _ => closed = true,
            }
        }
        // Write every request that is due, pipelined behind any response
        // still outstanding.
        now_ns = Instant::now().saturating_duration_since(start).as_nanos() as u64;
        match pace {
            Pace::Open(_) => {
                while next < mine.len() && mine[next].at_ns <= now_ns {
                    let p = mine[next];
                    outbuf.extend_from_slice(&p.wire);
                    queue.push_back(Pending {
                        class: p.class,
                        key: p.key,
                        due_ns: p.at_ns,
                        late_ns: now_ns - p.at_ns,
                        wire: Arc::clone(&p.wire),
                    });
                    next += 1;
                    last_progress = Instant::now();
                }
            }
            Pace::Closed {
                conn,
                depth,
                stop_ns,
                pick,
            } => {
                // Before the start, nothing is due yet.
                while start <= Instant::now() && now_ns < stop_ns && queue.len() < depth {
                    let (class, key, wire) = pick(conn, next as u64);
                    outbuf.extend_from_slice(&wire);
                    queue.push_back(Pending {
                        class,
                        key,
                        due_ns: now_ns,
                        late_ns: 0,
                        wire,
                    });
                    next += 1;
                    last_progress = Instant::now();
                }
            }
        }
        while !outbuf.is_empty() {
            match stream.write(&outbuf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_reset(&e) => {
                    reconnect = true;
                    break;
                }
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if !more(next, now_ns) && !queue.is_empty() && last_progress.elapsed() > DRAIN_TIMEOUT {
            break;
        }
        std::thread::yield_now();
    }
    // Closed or stalled: everything unanswered failed.
    out.extend(
        queue
            .iter()
            .map(|p| failed(p.class, p.key, p.due_ns, p.late_ns)),
    );
    // In a closed loop `next` counts the requests picked, and `mine` is
    // empty: nothing was left unwritten.
    out.extend(
        mine[next.min(mine.len())..]
            .iter()
            .map(|p| failed(p.class, p.key, p.at_ns, 0)),
    );
    out
}

/// Runs `schedule` as `parts` consecutive time slices, each on fresh
/// connections and threads. Which processor each thread lands on sways
/// latency on a small virtual machine; several slices average over
/// that placement instead of betting a whole run on one.
pub fn drive_in_parts(
    addr: SocketAddr,
    conns: usize,
    schedule: &[Planned],
    parts: usize,
    check: &Check<'_>,
    rec: &Recorder,
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::with_capacity(schedule.len());
    for k in 0..parts {
        out.extend(drive_part(addr, conns, schedule, parts, k, check, rec)?);
    }
    Ok(out)
}

/// Runs slice `k` of `parts` equal time slices of `schedule` on fresh
/// connections; the samples keep their due times in the whole schedule.
pub fn drive_part(
    addr: SocketAddr,
    conns: usize,
    schedule: &[Planned],
    parts: usize,
    k: usize,
    check: &Check<'_>,
    rec: &Recorder,
) -> Result<Vec<Sample>, String> {
    let end = schedule.last().map_or(0, |p| p.at_ns + 1);
    let slice = end.div_ceil(parts.max(1) as u64).max(1);
    let (from, to) = (k as u64 * slice, (k as u64 + 1) * slice);
    let part: Vec<Planned> = schedule
        .iter()
        .filter(|p| p.at_ns >= from && p.at_ns < to)
        .map(|p| Planned {
            at_ns: p.at_ns - from,
            ..p.clone()
        })
        .collect();
    let mut out = drive(addr, conns, &part, check, rec)?;
    for s in &mut out {
        s.due_ns += from;
    }
    Ok(out)
}

/// Whether `e` means the peer closed or reset the connection.
fn is_reset(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    matches!(e.kind(), ConnectionReset | ConnectionAborted | BrokenPipe)
}

/// A fresh non-blocking connection.
fn reopen(addr: SocketAddr) -> Option<TcpStream> {
    let s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok()?;
    s.set_nonblocking(true).ok()?;
    Some(s)
}

/// Parses one complete response at the head of `buf`: `(status, body
/// start, message end, connection closes)`, or `None` if more bytes are
/// needed.
fn parse_response(buf: &[u8]) -> Option<(u16, usize, usize, bool)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let end = head_end + length;
    (buf.len() >= end).then_some((status, head_end, end, close))
}

/// A `POST` request with a JSON body.
pub fn post(path: &str, body: &str) -> Arc<[u8]> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
    .into()
}

/// One blocking request on a fresh connection: `(status, body)`. For
/// set-up, probes and `/metrics` scrapes, not for measured traffic.
pub fn request(addr: SocketAddr, wire: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("read timeout: {e}"))?;
    s.write_all(wire).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if let Some((status, body_at, end, _)) = parse_response(&buf) {
            return Ok((status, buf[body_at..end].to_vec()));
        }
        let n = s.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before a full response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 503 X\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
        let (status, at, end, close) = parse_response(two).unwrap();
        assert_eq!((status, &two[at..end], close), (200, &b"hi"[..], false));
        let (status, at, end2, close) = parse_response(&two[end..]).unwrap();
        assert_eq!((status, at, close), (503, end2, true));
        assert!(parse_response(&two[..10]).is_none());
    }
}

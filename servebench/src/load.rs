//! The in-process service and its closed-loop load generator.
//!
//! The server is `hicond::serve::serve_tcp` on 127.0.0.1 with the
//! default batch policy. Each connection is one caller that writes a
//! request line and waits for the whole reply before sending the next
//! (closed loop). The timed loop does as little client work as it can:
//! one `write_all` of a pre-encoded line (newline included), raw `read`
//! calls until the reply's final newline, and a byte comparison against
//! the reply the same line received during warm-up. Parsing and the
//! residual check of every distinct reply happen after the window.
//! Client sockets keep the OS defaults: no `TCP_NODELAY`, no
//! `TCP_QUICKACK`, since either would hide how the server writes.

use crate::util::SpanLog;
use hicond::precond::LaplacianSolver;
use hicond::serve::{BatchConfig, BatchQueue, ServeConfig, ServeStats};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// At most this many replies that differ from their line's warm-up reply
/// are kept for a full check; further differing replies count as failed.
const MAX_STASHED: usize = 16;

/// A running in-process server.
pub struct Server {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
}

impl Server {
    pub fn start(solver: Arc<LaplacianSolver>) -> Result<Server, String> {
        let n = solver.dim();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stats = Arc::new(ServeStats::new());
        let queue = BatchQueue::new(BatchConfig::default());
        let dispatcher = queue.start(solver, Arc::clone(&stats));
        let cfg = ServeConfig {
            n,
            max_line: hicond::serve::max_line_bytes(n),
            read_timeout: Duration::from_secs(60),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("servebench-server".into())
            .spawn(move || {
                hicond::serve::serve_tcp(listener, &queue, dispatcher, &stats, &cfg, None, &stop2)
                    .map(|_| ())
            })
            .map_err(|e| e.to_string())?;
        Ok(Server { addr, stop, thread })
    }

    /// Stops accepting, waits for every connection handler and the batch
    /// dispatcher to finish. Callers close their connections first.
    pub fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().map_err(|_| "server thread panicked")?
    }
}

/// One closed-loop caller.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, reply_cap: usize) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: vec![0; reply_cap],
        })
    }

    /// Sends one line and reads its reply as raw bytes. Returns the
    /// reply length and the instants the write returned and the first
    /// reply byte arrived.
    fn round_trip(&mut self, line: &[u8]) -> std::io::Result<(usize, Instant, Instant)> {
        self.stream.write_all(line)?;
        let sent = Instant::now();
        let mut first = sent;
        let mut filled = 0;
        loop {
            if filled == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            let got = self.stream.read(&mut self.buf[filled..])?;
            if got == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            if filled == 0 {
                first = Instant::now();
            }
            filled += got;
            if self.buf[filled - 1] == b'\n' {
                return Ok((filled, sent, first));
            }
        }
    }

    /// A meta verb (`stats`, `metrics`) and its reply line.
    pub fn verb(&mut self, verb: &str) -> Result<String, String> {
        let (len, _, _) = self
            .round_trip(format!("{verb}\n").as_bytes())
            .map_err(|e| format!("{verb}: {e}"))?;
        Ok(String::from_utf8_lossy(&self.buf[..len - 1]).into_owned())
    }
}

/// One timed round trip, in ns from the window's start.
#[derive(Clone, Copy)]
pub struct Sample {
    pub line: usize,
    pub start: u64,
    pub sent: u64,
    pub first: u64,
    pub end: u64,
    pub status: Status,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Status {
    /// Byte-equal to the line's warm-up reply.
    SameAsWarmup,
    /// Differs; kept under this index of [`Window::stashed`].
    Stashed(usize),
    /// Differs and the stash was full, or the transport failed.
    Failed,
}

pub struct Window {
    pub samples: Vec<Sample>,
    /// Warm-up reply of every line, as received (newline stripped).
    pub warm: Vec<Vec<u8>>,
    pub stashed: Vec<(usize, Vec<u8>)>,
}

/// The window is cut into this many equal parts for [`Window::steady_rate`].
const RATE_PARTS: usize = 5;

impl Window {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Completions per second of the replies marked in `ok`, as the
    /// median over [`RATE_PARTS`] equal parts of the window, so a burst
    /// of outside load in one part moves it less than a plain mean.
    /// Each part's rate is (completions − 1) over the time from its first
    /// to its last completion, which does not jump by one whole request
    /// the way a count over a fixed interval does.
    pub fn steady_rate(&self, ok: &[bool]) -> f64 {
        let mut ends: Vec<u64> = self
            .samples
            .iter()
            .zip(ok)
            .filter(|(_, &o)| o)
            .map(|(s, _)| s.end)
            .collect();
        ends.sort_unstable();
        let span = ends.last().copied().unwrap_or(0) + 1;
        let rates: Vec<f64> = (0..RATE_PARTS as u64)
            .filter_map(|p| {
                let (lo, hi) = (
                    span * p / RATE_PARTS as u64,
                    span * (p + 1) / RATE_PARTS as u64,
                );
                let part: Vec<u64> = ends
                    .iter()
                    .copied()
                    .filter(|&e| e >= lo && e < hi)
                    .collect();
                let (first, last) = (*part.first()?, *part.last()?);
                (part.len() >= 2 && last > first)
                    .then(|| (part.len() - 1) as f64 / ((last - first) as f64 / 1e9))
            })
            .collect();
        crate::util::median(&rates)
    }
}

/// When a closed loop ends.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    EveryLineOnce,
}

/// Each line's reference reply plus the replies that differed from it.
pub struct Replies {
    warm: Vec<Vec<u8>>,
    stashed: Vec<(usize, Vec<u8>)>,
}

/// Warms the service up and records each line's reference reply: first
/// the first connection alone sends every line once, then every
/// connection sends every line once at the same time, as in the window,
/// so the server has also run at the window's batch widths.
pub fn warm_up(conns: &mut [Conn], lines: &[Vec<u8>]) -> Result<Replies, String> {
    let first = conns.first_mut().ok_or("no connections")?;
    let mut warm = Vec::with_capacity(lines.len());
    for line in lines {
        let (len, _, _) = first
            .round_trip(line)
            .map_err(|e| format!("warm-up: {e}"))?;
        warm.push(first.buf[..len - 1].to_vec());
    }
    let mut replies = Replies {
        warm,
        stashed: Vec::new(),
    };
    let (samples, _) = closed_loop(conns, lines, &mut replies, Until::EveryLineOnce)?;
    if samples.iter().any(|s| s.status == Status::Failed) {
        return Err("warm-up: a request failed".into());
    }
    Ok(replies)
}

/// The timed closed loop: every connection sends lines back to back for
/// `seconds`.
pub fn run_window(
    conns: &mut [Conn],
    lines: &[Vec<u8>],
    seconds: f64,
    mut replies: Replies,
    spans: Option<&mut SpanLog>,
) -> Result<Window, String> {
    let until = Until::Elapsed(Duration::from_secs_f64(seconds));
    let (samples, origin) = closed_loop(conns, lines, &mut replies, until)?;
    if let Some(log) = spans {
        let base = log.ns(origin);
        for (j, s) in samples.iter().enumerate() {
            let at = |ns: u64| base + ns;
            let name = format!("request line={} seq={j}", s.line);
            let id = log.push_ns(name, None, at(s.start), at(s.end));
            log.push_ns("send".into(), Some(id), at(s.start), at(s.sent));
            log.push_ns("await_first_byte".into(), Some(id), at(s.sent), at(s.first));
            log.push_ns("recv".into(), Some(id), at(s.first), at(s.end));
        }
    }
    Ok(Window {
        samples,
        warm: replies.warm,
        stashed: replies.stashed,
    })
}

/// Runs one load thread per connection, all released together.
/// Connection `c` starts its cycle through the lines at an offset, so
/// concurrent callers send different lines. Each reply is compared with
/// its line's reference; one that differs is kept in `replies.stashed`
/// (up to [`MAX_STASHED`] in all, later ones count as failed). Returns
/// the samples, in ns from the earliest thread's start, and that start.
fn closed_loop(
    conns: &mut [Conn],
    lines: &[Vec<u8>],
    replies: &mut Replies,
    until: Until,
) -> Result<(Vec<Sample>, Instant), String> {
    let n_lines = lines.len();
    let c_total = conns.len();
    let stash_room = MAX_STASHED.saturating_sub(replies.stashed.len()) / c_total;
    let barrier = Barrier::new(c_total);
    let warm = &replies.warm;
    let per_conn: Vec<(Vec<Sample>, Vec<Vec<u8>>, Instant)> = std::thread::scope(|s| {
        let barrier = &barrier;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(4096);
                    let mut extra: Vec<Vec<u8>> = Vec::new();
                    barrier.wait();
                    let origin = Instant::now();
                    let offset = c * n_lines / c_total;
                    for k in 0.. {
                        let more = match until {
                            Until::Elapsed(d) => origin.elapsed() < d,
                            Until::EveryLineOnce => k < n_lines,
                        };
                        if !more {
                            break;
                        }
                        let i = (offset + k) % n_lines;
                        let t0 = Instant::now();
                        let Ok((len, sent, first)) = conn.round_trip(&lines[i]) else {
                            let now = Instant::now();
                            samples.push(sample(i, origin, [t0, now, now, now], Status::Failed));
                            break;
                        };
                        let end = Instant::now();
                        let reply = &conn.buf[..len - 1];
                        let status = if reply == warm[i].as_slice() {
                            Status::SameAsWarmup
                        } else if extra.len() < stash_room {
                            extra.push(reply.to_vec());
                            Status::Stashed(extra.len() - 1)
                        } else {
                            Status::Failed
                        };
                        samples.push(sample(i, origin, [t0, sent, first, end], status));
                    }
                    (samples, extra, origin)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;

    // Re-base every connection on the earliest start and merge.
    let origin = per_conn.iter().map(|p| p.2).min().ok_or("no connections")?;
    let mut samples = Vec::new();
    for (mut conn_samples, extra, conn_origin) in per_conn {
        let shift = conn_origin.duration_since(origin).as_nanos() as u64;
        let base = replies.stashed.len();
        replies.stashed.extend(extra.into_iter().map(|r| (0, r)));
        for s in &mut conn_samples {
            s.start += shift;
            s.sent += shift;
            s.first += shift;
            s.end += shift;
            if let Status::Stashed(j) = s.status {
                s.status = Status::Stashed(base + j);
                replies.stashed[base + j].0 = s.line;
            }
        }
        samples.extend(conn_samples);
    }
    Ok((samples, origin))
}

fn sample(line: usize, origin: Instant, at: [Instant; 4], status: Status) -> Sample {
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    Sample {
        line,
        start: ns(at[0]),
        sent: ns(at[1]),
        first: ns(at[2]),
        end: ns(at[3]),
        status,
    }
}

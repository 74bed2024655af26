//! The line-protocol client and the two load shapes the wire workloads
//! use: a sliding-window closed loop (throughput) and an open loop on a
//! fixed schedule (latency, timed from each request's due time).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A reply later than this is a failure (and misses every percentile); it
/// also bounds how long a hung server can hold a run.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Client-side traffic counts: what `taser-serve::protocol` had to read
/// and write.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Traffic {
    pub lines_out: u64,
    pub bytes_out: u64,
    pub lines_in: u64,
    pub bytes_in: u64,
}

impl Traffic {
    pub fn add(&mut self, other: Traffic) {
        self.lines_out += other.lines_out;
        self.bytes_out += other.bytes_out;
        self.lines_in += other.lines_in;
        self.bytes_in += other.bytes_in;
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pub traffic: Traffic,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // the client never batches small writes behind an unacked one
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            traffic: Traffic::default(),
        })
    }

    /// Sends `text` (one or more newline-terminated lines) in one write.
    pub fn send(&mut self, text: &str, lines: u64) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.traffic.lines_out += lines;
        self.traffic.bytes_out += text.len() as u64;
        Ok(())
    }

    /// Next reply line without its newline; `Err` on timeout or EOF.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(n) => {
                self.traffic.lines_in += 1;
                self.traffic.bytes_in += n as u64;
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err("reply timed out".into())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// True when a complete reply is already buffered (no syscall).
    fn has_buffered_line(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// One request, one single-line reply.
    pub fn ask(&mut self, line: &str) -> Result<String, String> {
        self.send(&format!("{line}\n"), 1)?;
        self.recv()
    }

    /// `metrics` replies with many lines and no terminator, so it is sent
    /// with a `repl` chaser whose one-line JSON reply marks the end.
    pub fn metrics(&mut self) -> Result<String, String> {
        self.send("metrics\nrepl\n", 2)?;
        let mut text = String::new();
        loop {
            let line = self.recv()?;
            if line.starts_with("{\"role\":") {
                return Ok(text);
            }
            text.push_str(&line);
            text.push('\n');
        }
    }
}

/// What one request came to, as the client saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Index into the request list this connection was given.
    pub index: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// The reply line; `Err` for a timeout or a dropped connection.
    pub line: Result<String, String>,
}

impl Reply {
    /// A well-formed `score` reply.
    pub fn is_score(&self) -> bool {
        self.line.as_deref().is_ok_and(|l| parse_score(l).is_some())
    }

    /// The event id of a well-formed `ingested` reply.
    pub fn eid(&self) -> Option<u64> {
        parse_ingested(self.line.as_deref().ok()?)
    }

    /// Latency from the due time, µs; a failed request takes the full
    /// timeout so it misses every percentile.
    pub fn latency_us(&self, ok: bool) -> f64 {
        if ok {
            self.done.duration_since(self.due).as_secs_f64() * 1e6
        } else {
            REPLY_TIMEOUT.as_secs_f64() * 1e6
        }
    }
}

/// Runs `f` on every connection at once, one thread each, pairing
/// connection `i` with `inputs[i]`; results come back in that order.
pub fn on_each<I: Sync, T: Send>(
    conns: &mut [Conn],
    inputs: &[I],
    f: impl Fn(&mut Conn, &I) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(inputs)
            .map(|(conn, input)| s.spawn(move || f(conn, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// When a closed loop stops issuing new requests (it always drains).
#[derive(Clone, Copy)]
pub enum Stop {
    /// Keep the window full until this instant.
    At(Instant),
    /// Issue exactly this many requests.
    After(usize),
}

/// A request generator that cycles through a fixed pool of lines.
pub fn cycle(lines: &[String]) -> impl FnMut(usize, &mut String) + '_ {
    |i, out| out.push_str(&lines[i % lines.len()])
}

/// Closed loop on one connection: keep `window` requests outstanding until
/// `stop`, then drain. `line(i, buf)` appends request `i` (no newline). One
/// thread, one write per refill. Replies come back FIFO, which is how they
/// are matched.
pub fn closed_loop(
    conn: &mut Conn,
    mut line: impl FnMut(usize, &mut String),
    window: usize,
    stop: Stop,
) -> Vec<Reply> {
    let mut out = Vec::new();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let mut burst = String::new();
    loop {
        let room = window - pending.len();
        let n = match stop {
            Stop::At(deadline) if Instant::now() < deadline => room,
            Stop::At(_) => 0,
            Stop::After(total) => room.min(total - next),
        };
        if n > 0 {
            burst.clear();
            let sent = Instant::now();
            for _ in 0..n {
                line(next, &mut burst);
                burst.push('\n');
                pending.push_back((next, sent));
                next += 1;
            }
            if let Err(e) = conn.send(&burst, n as u64) {
                fail_rest(&mut out, &mut pending, &e);
                return out;
            }
        }
        if pending.is_empty() {
            return out;
        }
        // block for one reply, then take whatever else already arrived
        loop {
            let (index, sent) = *pending.front().expect("non-empty");
            match conn.recv() {
                Ok(line) => {
                    pending.pop_front();
                    out.push(Reply {
                        index,
                        due: sent,
                        sent,
                        done: Instant::now(),
                        line: Ok(line),
                    });
                }
                Err(e) => {
                    fail_rest(&mut out, &mut pending, &e);
                    return out;
                }
            }
            if pending.is_empty() || !conn.has_buffered_line() {
                break;
            }
        }
    }
}

fn fail_rest(out: &mut Vec<Reply>, pending: &mut VecDeque<(usize, Instant)>, why: &str) {
    let now = Instant::now();
    for (index, sent) in pending.drain(..) {
        out.push(Reply {
            index,
            due: sent,
            sent,
            done: now,
            line: Err(why.to_string()),
        });
    }
}

/// Open loop on one connection: request `i` is written at `start +
/// due_ns[i]` whether or not earlier replies are back, so a stall shows up
/// as latency on every request scheduled behind it. A sender thread keeps
/// the schedule; this thread reads replies and matches them FIFO.
pub fn open_loop(conn: &mut Conn, lines: &[String], due_ns: &[u64], start: Instant) -> Vec<Reply> {
    assert_eq!(lines.len(), due_ns.len());
    let Conn {
        writer,
        reader,
        traffic,
    } = conn;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    let mut out = Vec::with_capacity(lines.len());
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent_bytes = 0u64;
            for (i, (line, &due)) in lines.iter().zip(due_ns).enumerate() {
                let due_at = start + Duration::from_nanos(due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let mut framed = String::with_capacity(line.len() + 1);
                framed.push_str(line);
                framed.push('\n');
                if writer.write_all(framed.as_bytes()).is_err() {
                    break;
                }
                sent_bytes += framed.len() as u64;
                if tx.send((i, due_at, Instant::now())).is_err() {
                    break;
                }
            }
            sent_bytes
        });
        let mut dead: Option<String> = None;
        for (index, due, sent) in rx {
            let line = match &dead {
                Some(why) => Err(why.clone()),
                None => {
                    let mut buf = String::new();
                    match reader.read_line(&mut buf) {
                        Ok(n) if n > 0 => {
                            traffic.lines_in += 1;
                            traffic.bytes_in += n as u64;
                            buf.truncate(buf.trim_end().len());
                            Ok(buf)
                        }
                        Ok(_) => Err("connection closed".to_string()),
                        Err(e) => Err(format!("read: {e}")),
                    }
                }
            };
            if let Err(why) = &line {
                // FIFO matching is lost after one missing reply: everything
                // still scheduled on this connection counts as failed
                dead.get_or_insert_with(|| why.clone());
            }
            out.push(Reply {
                index,
                due,
                sent,
                done: Instant::now(),
                line,
            });
        }
        traffic.bytes_out += sender.join().expect("sender thread panicked");
    });
    traffic.lines_out += out.len() as u64;
    // requests the sender never got to write (dead connection) still count
    let now = Instant::now();
    for (index, &due) in due_ns.iter().enumerate().skip(out.len()) {
        out.push(Reply {
            index,
            due: start + Duration::from_nanos(due),
            sent: now,
            done: now,
            line: Err("not sent: connection lost".into()),
        });
    }
    out
}

/// `score <prob> gen=<g>` → the probability; anything else is not a score.
pub fn parse_score(line: &str) -> Option<f64> {
    let mut it = line.split(' ');
    if it.next()? != "score" {
        return None;
    }
    let p: f64 = it.next()?.parse().ok()?;
    it.next()?.strip_prefix("gen=")?.parse::<u64>().ok()?;
    (it.next().is_none() && p > 0.0 && p < 1.0).then_some(p)
}

/// `ingested eid=<n>` → the event id.
pub fn parse_ingested(line: &str) -> Option<u64> {
    line.strip_prefix("ingested eid=")?.parse().ok()
}

/// `digest <hex> gen=<g>` → the hex digest.
pub fn parse_digest(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("digest ")?;
    let (hex, gen) = rest.split_once(" gen=")?;
    gen.parse::<u64>().ok()?;
    (hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())).then_some(hex)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_lines_parse_strictly() {
        assert_eq!(parse_score("score 0.445968 gen=0"), Some(0.445968));
        assert_eq!(parse_score("score 1.5 gen=0"), None, "not a probability");
        assert_eq!(parse_score("score 0.5 gen=x"), None);
        assert_eq!(parse_score("score 0.5 gen=1 extra"), None);
        assert_eq!(parse_score("overloaded deadline lane=0"), None);
        assert_eq!(parse_ingested("ingested eid=41"), Some(41));
        assert_eq!(parse_ingested("error stream must be chronological"), None);
        assert_eq!(
            parse_digest("digest 00ab34cd00ab34cd gen=7"),
            Some("00ab34cd00ab34cd")
        );
        assert_eq!(parse_digest("digest xyz gen=7"), None);
    }

    /// A line-echo server stands in for the program: enough to check FIFO
    /// matching, window refill and the open-loop schedule end to end.
    fn echo_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if w.write_all(format!("echo {line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn closed_loop_matches_replies_fifo() {
        let (addr, server) = echo_server();
        let mut conn = Conn::open(&addr).unwrap();
        let lines: Vec<String> = (0..10).map(|i| format!("q{i}")).collect();
        let timed = closed_loop(
            &mut conn,
            cycle(&lines),
            4,
            Stop::At(Instant::now() + Duration::from_millis(50)),
        );
        assert!(timed.len() >= 4);
        let counted = closed_loop(&mut conn, cycle(&lines), 4, Stop::After(7));
        assert_eq!(counted.len(), 7);
        assert_eq!(counted[6].line.as_deref(), Ok("echo q6"));
        let replies = timed;
        for (n, r) in replies.iter().enumerate() {
            assert_eq!(r.index, n, "FIFO");
            assert_eq!(r.line.as_deref(), Ok(format!("echo q{}", n % 10).as_str()));
            assert!(r.done >= r.sent);
        }
        assert_eq!(conn.traffic.lines_out, replies.len() as u64 + 7);
        assert_eq!(conn.traffic.lines_in, replies.len() as u64 + 7);
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn open_loop_keeps_its_schedule_and_counts_traffic() {
        let (addr, server) = echo_server();
        let mut conn = Conn::open(&addr).unwrap();
        let lines: Vec<String> = (0..5).map(|i| format!("q{i}")).collect();
        let due: Vec<u64> = (0..5).map(|i| i * 4_000_000).collect();
        let start = Instant::now();
        let replies = open_loop(&mut conn, &lines, &due, start);
        assert_eq!(replies.len(), 5);
        for (n, r) in replies.iter().enumerate() {
            assert_eq!(r.index, n);
            assert!(r.sent >= r.due, "never sent before due");
            assert_eq!(r.line.as_deref(), Ok(format!("echo q{n}").as_str()));
        }
        assert!(start.elapsed() >= Duration::from_millis(16));
        let expect = Traffic {
            lines_out: 5,
            bytes_out: 15,
            lines_in: 5,
            bytes_in: 40,
        };
        assert_eq!(conn.traffic, expect, "5 lines of 3 bytes out, 8 back");
        drop(conn);
        server.join().unwrap();
    }
}

//! Line-oriented text protocol over stdin/stdout or TCP.
//!
//! One command per line, one reply per line, flushed before the next
//! command is read (so scripted sessions and `nc` both work). Every reply
//! but `ingest`'s is formatted, newline included, into a buffer the
//! session owns and leaves in a single `write` with `TCP_NODELAY` on, so
//! it never waits behind the client's delayed ACK of the reply before it.
//! An `ingest` ack is its text and then the newline, under Nagle.
//!
//! ```text
//! ingest <u> <v> <t>       ->  ingested eid=<eid>
//! query <u> <v> <t> [lane] ->  score <prob> gen=<generation>
//!                          ->  overloaded queue_full lane=<l>   (shed at the door)
//!                          ->  overloaded deadline lane=<l>     (expired in queue)
//!                          ->  overloaded worker_failed lane=<l> (worker crashed or wedged)
//! publish                  ->  published gen=<generation>
//! stats                    ->  <one-line JSON>
//! metrics                  ->  <Prometheus text, multi-line>
//! health                   ->  <one-line JSON: level, rates, firing alerts>
//! watch <n>                ->  <n windowed-rate lines, one per eval period>
//! profile                  ->  <stage-occupancy folded stacks, multi-line>
//! trace                    ->  <chrome://tracing JSON, one line>
//! repl                     ->  <one-line JSON: role, position, lag, peers>
//! digest                   ->  digest <hex> gen=<generation>
//! promote                  ->  promoted next_eid=<n>   (replica -> primary)
//! shutdown                 ->  shutdown drained       (closes the session)
//! quit                     ->  bye            (closes the session)
//! # comment / blank        ->  (no reply)
//! ```
//!
//! Most replies are a single line; `metrics` (the Prometheus scrape),
//! `watch` (one line per evaluation period, paced by the watchdog's
//! cadence), and `profile` (folded stacks) are multi-line. Scripted
//! clients that count lines should issue those last or parse by their
//! framing (`# TYPE` for metrics, `t=` for watch).
//!
//! `health`, `watch`, and `profile` read the engine's health watchdog
//! ([`crate::health`]); with the watchdog disabled they answer from a
//! monitor nothing feeds (`health` then says `"watchdog":"off"`). `trace`
//! dumps the span rings on demand — the complement to the CLI's
//! `--trace-out`, which only writes its file at session end.
//!
//! `lane` is an optional priority lane index (0 = highest, drains first;
//! defaults to 0, clamped to the engine's `--lanes`). Under overload the
//! engine answers with a typed `overloaded` line instead of queueing the
//! query without bound — open-loop clients get explicit backpressure.
//!
//! Malformed input answers `error <reason>` and keeps the session open — a
//! server must survive misbehaving clients. That includes bytes that are
//! not UTF-8 (answered `error`, session continues) and clients that
//! disconnect mid-write (the session ends cleanly; the TCP accept loop
//! and every other connection are untouched). Query replies are bounded:
//! the session waits a multiple of the SLO for a ticket and then answers
//! `overloaded worker_failed` — a crashed or wedged scoring worker can
//! never hang a client on a dead ticket.
//!
//! The replication verbs are the failover runbook: `repl` reports the
//! node's role and feed position, `digest` publishes and answers the
//! content digest (the bit-identity oracle two nodes are compared by),
//! `promote` turns a caught-up replica into a writable primary, and
//! `shutdown` runs the engine's graceful drain (seal, flush the WAL
//! tail, final checkpoint) before closing the session. Clients dialing a
//! node that is still starting (or failing over) should connect through
//! [`client::connect_with_retry`].

use crate::admission::Overloaded;
use crate::engine::ServeEngine;
use std::fmt::Write as _;
use std::io::{BufRead, ErrorKind, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// A parsed protocol command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Command {
    /// Append a streaming interaction.
    Ingest {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Timestamp.
        t: f64,
    },
    /// Score a link query.
    Query {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Query time.
        t: f64,
        /// Priority lane (0 = highest; clamped to the engine's lane count).
        lane: usize,
    },
    /// Force a snapshot publish.
    Publish,
    /// Report engine counters.
    Stats,
    /// Render the full metric surface — engine stats, pool scheduling
    /// counters, and the process-wide [`taser_obs`] registry — as
    /// Prometheus text (multi-line).
    Metrics,
    /// One-line JSON health summary: overall level, windowed rates,
    /// per-lane burn state, and the currently-firing alerts.
    Health,
    /// `n` windowed-rate lines, one per watchdog evaluation period.
    Watch(usize),
    /// Stage-occupancy profile as folded stacks (multi-line).
    Profile,
    /// Dump recorded spans as chrome://tracing JSON (one line; empty
    /// trace unless tracing is on via `--trace-out` or `TASER_TRACE=1`).
    Trace,
    /// One-line JSON replication status: role, feed position, lag,
    /// connected peers.
    Repl,
    /// Publish, then answer the snapshot content digest — the identity
    /// two nodes are compared by after failover.
    Digest,
    /// Promote a read-only replica into a writable primary.
    Promote,
    /// Gracefully drain the engine (seal, flush, final checkpoint) and
    /// end the session.
    Shutdown,
    /// End the session.
    Quit,
}

/// Upper bound on `watch <n>`: a session verb must not pin the connection
/// for longer than ~10 minutes of default evaluation periods.
const WATCH_MAX: usize = 1200;

/// Parses one line; `Ok(None)` for blanks and `#` comments.
pub fn parse(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let verb = parts.next().expect("nonempty line has a token");
    let mut triple = |verb: &str| -> Result<(u32, u32, f64), String> {
        fn take<'a>(p: Option<&'a str>, verb: &str, what: &str) -> Result<&'a str, String> {
            p.ok_or_else(|| format!("{verb}: missing {what}"))
        }
        let src = take(parts.next(), verb, "src")?
            .parse::<u32>()
            .map_err(|e| format!("{verb}: bad src: {e}"))?;
        let dst = take(parts.next(), verb, "dst")?
            .parse::<u32>()
            .map_err(|e| format!("{verb}: bad dst: {e}"))?;
        let t = take(parts.next(), verb, "t")?
            .parse::<f64>()
            .map_err(|e| format!("{verb}: bad t: {e}"))?;
        Ok((src, dst, t))
    };
    match verb {
        "ingest" => {
            let (src, dst, t) = triple("ingest")?;
            if parts.next().is_some() {
                return Err("ingest: trailing tokens".to_string());
            }
            Ok(Some(Command::Ingest { src, dst, t }))
        }
        "query" => {
            let (src, dst, t) = triple("query")?;
            let lane = match parts.next() {
                None => 0,
                Some(v) => v
                    .parse::<usize>()
                    .map_err(|e| format!("query: bad lane: {e}"))?,
            };
            if parts.next().is_some() {
                return Err("query: trailing tokens".to_string());
            }
            Ok(Some(Command::Query { src, dst, t, lane }))
        }
        "publish" => Ok(Some(Command::Publish)),
        "stats" => Ok(Some(Command::Stats)),
        "metrics" => Ok(Some(Command::Metrics)),
        "health" => Ok(Some(Command::Health)),
        "watch" => {
            let n = match parts.next() {
                None => 5,
                Some(v) => v
                    .parse::<usize>()
                    .map_err(|e| format!("watch: bad count: {e}"))?,
            };
            if parts.next().is_some() {
                return Err("watch: trailing tokens".to_string());
            }
            if n == 0 || n > WATCH_MAX {
                return Err(format!("watch: count must be in 1..={WATCH_MAX}"));
            }
            Ok(Some(Command::Watch(n)))
        }
        "profile" => Ok(Some(Command::Profile)),
        "trace" => Ok(Some(Command::Trace)),
        "repl" => Ok(Some(Command::Repl)),
        "digest" => Ok(Some(Command::Digest)),
        "promote" => Ok(Some(Command::Promote)),
        "shutdown" => Ok(Some(Command::Shutdown)),
        "quit" => Ok(Some(Command::Quit)),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Executes one command, returning the reply line (`Quit` replies `bye`;
/// the session loop is responsible for actually ending).
pub fn respond(engine: &ServeEngine, cmd: Command) -> String {
    match cmd {
        Command::Ingest { src, dst, t } => match engine.ingest(src, dst, t) {
            Ok(e) => format!("ingested eid={}", e.eid),
            Err(msg) => format!("error {msg}"),
        },
        Command::Query { src, dst, t, lane } => {
            let mut out = String::new();
            query_reply(engine, src, dst, t, lane, &mut out);
            out
        }
        Command::Publish => format!("published gen={}", engine.publish()),
        Command::Stats => engine.stats().to_json(),
        Command::Metrics => render_metrics(engine),
        Command::Health => engine.health().health_json(),
        Command::Watch(n) => {
            // paced by the watchdog's own cadence so each line reflects a
            // fresh evaluation; the whole reply is flushed at once (clients
            // wanting live pacing should loop `watch 1` themselves)
            let every = engine.health().config().eval_every;
            let mut out = String::new();
            for i in 0..n {
                if i > 0 {
                    std::thread::sleep(every);
                    out.push('\n');
                }
                out.push_str(&engine.health().watch_line());
            }
            out
        }
        Command::Profile => {
            let folded = engine.health().occupancy_folded();
            if folded.is_empty() {
                "profile empty (no occupancy sweeps yet)".to_string()
            } else {
                let mut folded = folded;
                while folded.ends_with('\n') {
                    folded.pop();
                }
                folded
            }
        }
        Command::Trace => taser_obs::chrome_trace_json(),
        Command::Repl => engine.repl_status().to_json(),
        Command::Digest => {
            // publish first so the digest covers every ingest so far —
            // the number two nodes are compared by after failover
            let gen = engine.publish();
            format!("digest {:016x} gen={gen}", engine.snapshot_digest())
        }
        Command::Promote => match engine.promote() {
            Ok(next_eid) => format!("promoted next_eid={next_eid}"),
            Err(msg) => format!("error {msg}"),
        },
        Command::Shutdown => match engine.shutdown() {
            Ok(()) => "shutdown drained".to_string(),
            Err(e) => format!("error shutdown persist: {e}"),
        },
        Command::Quit => "bye".to_string(),
    }
}

/// Scores one query and appends the reply text (no newline) to `out`. The
/// session blocks on the ticket before it reads its next line, and says
/// so at submit, so the batch does not wait out `max_wait` for it.
fn query_reply(engine: &ServeEngine, src: u32, dst: u32, t: f64, lane: usize, out: &mut String) {
    let outcome = match engine.submit_blocking(src, dst, t, lane) {
        Ok(ticket) => {
            // a healthy engine resolves well inside the SLO; the bound
            // only fires when a worker is wedged (not crashed — a crash
            // resolves the ticket as WorkerFailed immediately), and
            // turns that into a typed reply instead of a hung client
            let policy = engine.admission_policy();
            let budget = policy.slo.saturating_mul(4).max(Duration::from_secs(2));
            ticket
                .wait_timeout(budget)
                .unwrap_or(Err(Overloaded::WorkerFailed {
                    lane: lane.min(policy.lanes - 1),
                }))
        }
        Err(shed) => Err(shed),
    };
    let written = match outcome {
        Ok(r) => write!(out, "score {:.6} gen={}", r.prob, r.generation),
        Err(shed) => write!(out, "overloaded {shed}"),
    };
    written.expect("formatting into a String cannot fail");
}

/// The full Prometheus-text scrape behind the `metrics` verb: per-lane
/// serve counters, pool steal/park/wake tallies, and everything other
/// subsystems (cache epochs, index publishes) recorded in the global
/// [`taser_obs`] registry. The trailing newline is trimmed because the
/// session loop appends one.
fn render_metrics(engine: &ServeEngine) -> String {
    use taser_obs::export::{push_sample, push_type};
    let mut out = engine.stats().to_prometheus();
    let pc = rayon::pool_counters();
    for (name, v) in [
        ("taser_pool_steals_total", pc.steals),
        ("taser_pool_parks_total", pc.parks),
        ("taser_pool_wakes_total", pc.wakes),
        ("taser_pool_inline_runs_total", pc.inline_runs),
    ] {
        push_type(&mut out, name, "counter");
        push_sample(&mut out, name, v);
    }
    out.push_str(&taser_obs::global().render_prometheus());
    while out.ends_with('\n') {
        out.pop();
    }
    out
}

/// Client-side connection helpers for benches, smokes, and operator
/// scripts talking to a node that may still be binding its listener (or
/// mid-failover).
pub mod client {
    use std::io;
    use std::net::TcpStream;
    use std::time::{Duration, SystemTime};

    /// Dials `addr`, retrying up to `attempts` times with exponential
    /// backoff (starting at `base`, doubling, capped at 2 s) plus a
    /// little clock-derived jitter so a thundering herd of rejoining
    /// clients spreads out. Returns the last error once the budget is
    /// spent.
    pub fn connect_with_retry(addr: &str, attempts: u32, base: Duration) -> io::Result<TcpStream> {
        let mut delay = base.max(Duration::from_millis(1));
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match TcpStream::connect(addr) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts.max(1) {
                let jitter_ms = SystemTime::now()
                    .duration_since(SystemTime::UNIX_EPOCH)
                    .map_or(0, |d| u64::from(d.subsec_nanos()) % 16);
                std::thread::sleep(delay + Duration::from_millis(jitter_ms));
                delay = (delay * 2).min(Duration::from_secs(2));
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("connect_with_retry: zero attempts")))
    }
}

/// True for the error kinds a vanishing client produces: normal session
/// churn, not a server fault.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    )
}

/// Runs one session: reads commands until `quit` or EOF, writing one flushed
/// reply per command from a buffer reused across the session.
///
/// Before each reply the session calls `push(on)`: `true` asks the
/// transport to send every write at once (`TCP_NODELAY`), `false` lets it
/// coalesce them (Nagle). A reply other than `ingest`'s asks for push and
/// leaves in one `write` of text + newline; an `ingest` ack (its `error`
/// too) asks for Nagle and is written as text, then newline. A failed
/// `push` ends the session like a failed write. Transports with no such
/// knob pass `|_| Ok(())`.
///
/// Robust against misbehaving clients: bytes that are not UTF-8 get an
/// `error` reply and the session continues (reading raw lines, not
/// `BufRead::lines`, which would abort the whole session on the first
/// invalid byte), and a client that disconnects mid-read or mid-write
/// ends the session with `Ok(())` — only genuine I/O faults surface as
/// errors.
pub fn run_session(
    engine: &ServeEngine,
    mut reader: impl BufRead,
    mut writer: impl Write,
    mut push: impl FnMut(bool) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut raw = Vec::new();
    let mut reply = String::new();
    loop {
        raw.clear();
        match reader.read_until(b'\n', &mut raw) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            Err(e) if is_disconnect(&e) => return Ok(()),
            Err(e) => return Err(e),
        }
        let parsed = std::str::from_utf8(&raw)
            .map_err(|_| "input is not valid UTF-8".to_string())
            .and_then(parse);
        let mut last = false;
        reply.clear();
        let pushed = match parsed {
            Ok(None) => continue,
            Ok(Some(Command::Query { src, dst, t, lane })) => {
                query_reply(engine, src, dst, t, lane, &mut reply);
                true
            }
            Ok(Some(cmd)) => {
                last = cmd == Command::Quit || cmd == Command::Shutdown;
                reply.push_str(&respond(engine, cmd));
                !matches!(cmd, Command::Ingest { .. })
            }
            Err(msg) => {
                reply.push_str("error ");
                reply.push_str(&msg);
                true
            }
        };
        let sent = push(pushed).and_then(|()| {
            if pushed {
                reply.push('\n');
                writer.write_all(reply.as_bytes())
            } else {
                // an ingest ack stays text, then newline, under Nagle: a
                // faster ack path is a design the ledger gate rejects
                // (EXPERIMENTS.md, "What the ledger gate currently
                // forbids on the wire path")
                writer.write_all(reply.as_bytes())?;
                writer.write_all(b"\n")
            }
        });
        match sent.and_then(|()| writer.flush()) {
            Ok(()) if !last => {}
            Ok(()) => return Ok(()),
            Err(e) if is_disconnect(&e) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// Accept loop: one thread per TCP connection, each running a session
/// against the shared engine. Blocks forever (callers spawn it). Transient
/// accept failures (a client resetting mid-handshake, momentary fd
/// pressure) are logged and survived — they must not take the server down.
/// A session that ends on an I/O fault rather than a disconnect is logged
/// and counted in `taser_protocol_session_errors_total`.
pub fn serve_tcp(engine: Arc<ServeEngine>, listener: TcpListener) -> std::io::Result<()> {
    let errors = taser_obs::global().counter("taser_protocol_session_errors_total");
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept error (continuing): {e}");
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        let (engine, errors) = (engine.clone(), errors.clone());
        std::thread::spawn(move || {
            let mut nodelay = false; // an accepted socket starts under Nagle
            let session = stream.try_clone().and_then(|read_half| {
                let reader = std::io::BufReader::new(read_half);
                run_session(&engine, reader, &stream, |on| {
                    if on != nodelay {
                        stream.set_nodelay(on)?;
                        nodelay = on;
                    }
                    Ok(())
                })
            });
            if let Err(e) = session {
                errors.inc();
                eprintln!("session error: {e}");
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::BatchPolicy;
    use crate::engine::ServeConfig;
    use std::time::Duration;
    use taser_graph::events::EventLog;
    use taser_graph::feats::FeatureMatrix;
    use taser_models::artifact::{ArtifactBackbone, ArtifactPolicy, ModelArtifact, ModelSpec};

    fn artifact() -> ModelArtifact {
        ModelArtifact::init(
            ModelSpec {
                backbone: ArtifactBackbone::GraphMixer,
                in_dim: 2,
                edge_dim: 0,
                hidden: 8,
                time_dim: 4,
                heads: 2,
                n_neighbors: 3,
                dropout: 0.0,
                policy: ArtifactPolicy::MostRecent,
            },
            Some(FeatureMatrix::from_vec(
                (0..40).map(|x| x as f32 * 0.1).collect(),
                2,
            )),
            None,
            3,
        )
    }

    fn seed_log() -> EventLog {
        EventLog::from_unsorted((0..10u32).map(|i| (i % 4, 4 + i % 4, i as f64)).collect())
    }

    fn engine() -> ServeEngine {
        ServeEngine::new(
            artifact(),
            seed_log(),
            ServeConfig {
                workers: 1,
                batch: BatchPolicy {
                    max_batch: 4,
                    max_wait: Duration::from_millis(1),
                },
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    /// Runs `script` as one session and returns what each `write` call on
    /// the connection carried — over an unbuffered socket, one call is one
    /// segment — with the push state the session last asked for.
    fn session_writes(engine: &ServeEngine, script: &str) -> Vec<(String, bool)> {
        let pushed = std::cell::Cell::new(false);
        struct Calls<'a>(Vec<(String, bool)>, &'a std::cell::Cell<bool>);
        impl Write for Calls<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let text = String::from_utf8(buf.to_vec()).unwrap();
                self.0.push((text, self.1.get()));
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut calls = Calls(Vec::new(), &pushed);
        run_session(engine, script.as_bytes(), &mut calls, |on| {
            pushed.set(on);
            Ok(())
        })
        .unwrap();
        calls.0
    }

    #[test]
    fn score_reply_is_one_write_and_other_verbs_keep_theirs() {
        let engine = engine();
        let writes = session_writes(
            &engine,
            "ingest 0 5 20\nquery 0 5 30\nstats\nquery 1 6 30 1\ndigest\nbogus\n\
             repl\nmetrics\ningest 0 5 1\nquit\n",
        );
        assert_eq!(writes.len(), 12, "{writes:?}");
        // ingest acks, the non-chronological error too: text, then the
        // newline, with push off
        for (at, text) in [(0, "ingested eid=10"), (9, "error stream must be")] {
            assert!(writes[at].0.starts_with(text), "{:?}", writes[at]);
            assert!(!writes[at].0.contains('\n'));
            assert_eq!(writes[at + 1].0, "\n");
            assert!(!writes[at].1 && !writes[at + 1].1, "ingest keeps Nagle");
        }
        // everything else: one write ending in its newline, with push on
        for (at, head) in [
            (2, "score 0."),
            (3, "{\"queries\":"),
            (4, "score 0."),
            (5, "digest "),
            (6, "error unknown command"),
            (7, "{\"role\":"),
            (8, "# TYPE "),
            (11, "bye"),
        ] {
            let (text, pushed) = &writes[at];
            assert!(text.starts_with(head), "{text}");
            assert!(text.ends_with('\n'), "text and newline in one write");
            assert!(*pushed, "{head} is pushed");
        }
        for one_line in [2, 3, 4, 5, 6, 7, 11] {
            assert_eq!(writes[one_line].0.matches('\n').count(), 1);
        }
    }

    #[test]
    fn a_failed_push_ends_the_session_like_a_failed_write() {
        use std::io::{Error, ErrorKind};
        let engine = engine();
        let fail = |kind: ErrorKind| {
            run_session(&engine, &b"stats\n"[..], Vec::new(), move |_| {
                Err(Error::from(kind))
            })
        };
        assert_eq!(fail(ErrorKind::Other).unwrap_err().kind(), ErrorKind::Other);
        assert!(fail(ErrorKind::ConnectionReset).is_ok(), "a disconnect");
    }

    #[test]
    fn parse_accepts_valid_commands() {
        assert_eq!(
            parse("ingest 1 2 3.5").unwrap(),
            Some(Command::Ingest {
                src: 1,
                dst: 2,
                t: 3.5
            })
        );
        assert_eq!(
            parse("  query 7 9 100  ").unwrap(),
            Some(Command::Query {
                src: 7,
                dst: 9,
                t: 100.0,
                lane: 0
            })
        );
        assert_eq!(
            parse("query 7 9 100 1").unwrap(),
            Some(Command::Query {
                src: 7,
                dst: 9,
                t: 100.0,
                lane: 1
            }),
            "optional fourth token selects the priority lane"
        );
        assert_eq!(parse("publish").unwrap(), Some(Command::Publish));
        assert_eq!(parse("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse("metrics").unwrap(), Some(Command::Metrics));
        assert_eq!(parse("health").unwrap(), Some(Command::Health));
        assert_eq!(
            parse("watch").unwrap(),
            Some(Command::Watch(5)),
            "watch defaults to 5 lines"
        );
        assert_eq!(parse("watch 3").unwrap(), Some(Command::Watch(3)));
        assert_eq!(parse("profile").unwrap(), Some(Command::Profile));
        assert_eq!(parse("trace").unwrap(), Some(Command::Trace));
        assert_eq!(parse("repl").unwrap(), Some(Command::Repl));
        assert_eq!(parse("digest").unwrap(), Some(Command::Digest));
        assert_eq!(parse("promote").unwrap(), Some(Command::Promote));
        assert_eq!(parse("shutdown").unwrap(), Some(Command::Shutdown));
        assert_eq!(parse("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("# comment").unwrap(), None);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("query 1 2").is_err(), "missing t");
        assert!(parse("query a 2 3").is_err(), "non-numeric src");
        assert!(parse("query 1 2 3 x").is_err(), "non-numeric lane");
        assert!(parse("query 1 2 3 0 9").is_err(), "trailing tokens");
        assert!(parse("ingest 1 2 3 4").is_err(), "ingest takes no lane");
        assert!(parse("watch 0").is_err(), "zero lines");
        assert!(parse("watch 100000").is_err(), "absurd line count");
        assert!(parse("watch 2 3").is_err(), "trailing tokens");
        assert!(parse("watch x").is_err(), "non-numeric count");
        assert!(parse("frobnicate").is_err());
    }

    #[test]
    fn health_watch_profile_and_trace_verbs_respond() {
        let engine = engine();
        for i in 0..4u32 {
            respond(
                &engine,
                Command::Query {
                    src: i % 4,
                    dst: 4 + i % 4,
                    t: 40.0,
                    lane: 0,
                },
            );
        }
        let health = respond(&engine, Command::Health);
        assert!(health.starts_with("{\"level\":\""), "{health}");
        assert!(health.contains("\"watchdog\":\"on\""), "{health}");
        assert!(health.contains("\"firing\":["), "{health}");
        assert!(health.contains("\"lanes\":[{\"lane\":0,"), "{health}");
        let watch = respond(&engine, Command::Watch(1));
        assert!(watch.starts_with("t="), "{watch}");
        assert!(watch.contains("level="), "{watch}");
        assert!(watch.contains("burn0="), "{watch}");
        let trace = respond(&engine, Command::Trace);
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        // fresh engine: the sampler may or may not have swept yet; either
        // the placeholder or folded frames, never an empty reply
        let profile = respond(&engine, Command::Profile);
        assert!(!profile.is_empty());
    }

    #[test]
    fn scripted_session_end_to_end() {
        let engine = engine();
        let script = "\
# warm-up
ingest 0 5 20
ingest 1 6 21
publish
query 0 5 30
stats
bogus
quit
query 9 9 99
";
        let mut out = Vec::new();
        run_session(&engine, script.as_bytes(), &mut out, |_| Ok(())).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            7,
            "two ingests, publish, query, stats, error, bye: {text}"
        );
        assert!(lines[0].starts_with("ingested eid="));
        assert!(lines[1].starts_with("ingested eid="));
        assert_eq!(lines[2], "published gen=1");
        assert!(lines[3].starts_with("score 0."), "{}", lines[3]);
        assert!(lines[3].contains("gen=1"));
        assert!(lines[4].starts_with('{'), "stats is JSON: {}", lines[4]);
        // `bogus` errored but did not end the session; `quit` did, so the
        // trailing query is never answered
        assert!(lines[5].starts_with("error"));
        assert_eq!(lines[6], "bye");
    }

    #[test]
    fn metrics_reply_is_well_formed_prometheus() {
        let engine = engine();
        for i in 0..4u32 {
            respond(
                &engine,
                Command::Query {
                    src: i % 4,
                    dst: 4 + i % 4,
                    t: 40.0,
                    lane: 0,
                },
            );
        }
        let text = respond(&engine, Command::Metrics);
        assert!(!text.ends_with('\n'), "session loop appends the newline");
        assert!(text.contains("# TYPE taser_serve_queries_total counter"));
        assert!(text.contains("taser_pool_steals_total "));
        assert!(text.contains("taser_pool_parks_total "));
        let parsed = taser_obs::parse_prometheus(&text);
        let admitted = parsed
            .iter()
            .find(|(n, _)| n == "taser_serve_admitted_total{lane=\"0\"}")
            .expect("per-lane admitted present")
            .1;
        assert_eq!(admitted, taser_obs::PromValue::Int(4));
        // the scrape is internally consistent: admitted splits exactly into
        // scored + shed-after-admission + queued + in-flight (the snapshot
        // fix; door-sheds are never admitted)
        let get = |n: &str| match parsed.iter().find(|(name, _)| name == n).unwrap().1 {
            taser_obs::PromValue::Int(v) => v,
            other => panic!("{n} not an integer: {other:?}"),
        };
        let scored = get("taser_serve_scored_total{lane=\"0\"}");
        let shed_dl = get("taser_serve_shed_total{lane=\"0\",reason=\"deadline\"}");
        let queued = get("taser_serve_queue_depth{lane=\"0\"}");
        let in_flight = get("taser_serve_in_flight{lane=\"0\"}");
        assert_eq!(4, scored + shed_dl + queued + in_flight);
    }

    #[test]
    fn query_probability_is_in_unit_interval() {
        let engine = engine();
        let reply = respond(
            &engine,
            Command::Query {
                src: 0,
                dst: 5,
                t: 50.0,
                lane: 0,
            },
        );
        let prob: f32 = reply
            .strip_prefix("score ")
            .and_then(|r| r.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(prob > 0.0 && prob < 1.0, "{reply}");
    }

    #[test]
    fn overloaded_reply_is_typed_not_an_error() {
        // a lane of capacity 1 behind a worker lingering on a huge batch:
        // the first query parks in the lane, the second sheds at the door
        let engine = ServeEngine::new(
            artifact(),
            seed_log(),
            ServeConfig {
                workers: 1,
                batch: BatchPolicy {
                    max_batch: 1024,
                    max_wait: Duration::from_secs(60),
                },
                slo: Duration::from_secs(2),
                slo_margin: Some(Duration::from_millis(1800)),
                queue_cap: 1,
                lanes: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let held = engine.submit(0, 5, 40.0).expect("first query admitted");
        assert_eq!(
            session_writes(&engine, "query 1 6 40\n"),
            [("overloaded queue_full lane=0\n".to_string(), true)],
            "typed shed reply, one write"
        );
        assert!(held.wait().is_ok(), "parked query still scores");
    }

    #[test]
    fn invalid_utf8_gets_an_error_reply_and_the_session_continues() {
        let engine = engine();
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"query 0 5 30\n");
        script.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']); // not UTF-8
        script.extend_from_slice(b"publish\nquit\n");
        let mut out = Vec::new();
        run_session(&engine, script.as_slice(), &mut out, |_| Ok(())).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].starts_with("score "), "{}", lines[0]);
        assert_eq!(lines[1], "error input is not valid UTF-8");
        assert!(lines[2].starts_with("published gen="), "{}", lines[2]);
        assert_eq!(lines[3], "bye");
    }

    #[test]
    fn wedged_worker_yields_typed_worker_failed_not_a_hung_client() {
        use crate::fault::FaultPlan;
        // the lone worker stalls far past the session's reply budget
        // (max(4*slo, 2s)); the query reply must come back typed anyway
        let engine = ServeEngine::new(
            artifact(),
            seed_log(),
            ServeConfig {
                workers: 1,
                batch: BatchPolicy {
                    max_batch: 4,
                    max_wait: Duration::from_millis(1),
                },
                slo: Duration::from_millis(100),
                faults: FaultPlan {
                    worker_stall: Duration::from_secs(4),
                    ..FaultPlan::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let start = std::time::Instant::now();
        assert_eq!(
            session_writes(&engine, "query 0 5 40\n"),
            [("overloaded worker_failed lane=0\n".to_string(), true)],
            "typed timeout reply, one write"
        );
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "reply must beat the stall, got it after {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn client_disconnect_mid_session_leaves_the_listener_alive() {
        use std::io::{BufRead, BufReader, Write};
        let engine = Arc::new(engine());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let _ = serve_tcp(engine, listener);
            });
        }
        // a client that sends multi-line-reply commands and vanishes
        // without reading, and one that sends garbage bytes and vanishes
        for payload in [&b"metrics\nmetrics\nmetrics\n"[..], &[0xff, 0xfe, b'\n']] {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(payload).unwrap();
            drop(conn);
        }
        // the accept loop and a fresh session still work
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"query 1 5 40\nquit\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("score "), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "bye");
    }

    #[test]
    fn replication_verbs_respond_and_shutdown_ends_the_session() {
        let engine = engine();
        let repl = respond(&engine, Command::Repl);
        assert!(repl.starts_with("{\"role\":\"standalone\""), "{repl}");
        assert!(repl.contains("\"lag\":0"), "{repl}");
        assert!(repl.contains("\"last_feed_ms\":null"), "{repl}");
        let digest = respond(&engine, Command::Digest);
        assert!(digest.starts_with("digest "), "{digest}");
        assert!(digest.contains(" gen="), "{digest}");
        assert_eq!(
            digest,
            respond(&engine, Command::Digest).replace("gen=2", "gen=1"),
            "digest is stable when nothing was ingested in between"
        );
        // promote on a non-replica is a typed error, not a panic
        assert_eq!(respond(&engine, Command::Promote), "error not a replica");

        // shutdown replies, drains, and ends the session; trailing
        // commands are never answered and late queries shed typed
        let script = "ingest 0 5 20\nshutdown\nstats\n";
        let mut out = Vec::new();
        run_session(&engine, script.as_bytes(), &mut out, |_| Ok(())).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with("ingested eid="), "{}", lines[0]);
        assert_eq!(lines[1], "shutdown drained");
        assert!(engine.is_sealed());
        assert_eq!(
            respond(
                &engine,
                Command::Query {
                    src: 0,
                    dst: 5,
                    t: 40.0,
                    lane: 0
                }
            ),
            "overloaded queue_full lane=0"
        );
    }

    #[test]
    fn connect_with_retry_rides_out_a_late_binding_listener() {
        use std::io::{BufRead, BufReader, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // refuse until the server "comes up": drop the listener, redial the
        // same port from a delayed thread
        drop(listener);
        let addr2 = addr.clone();
        let rebind = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = TcpListener::bind(&addr2).unwrap();
            let engine = Arc::new(engine());
            let _ = serve_tcp(engine, listener);
        });
        let conn = client::connect_with_retry(&addr, 8, Duration::from_millis(20))
            .expect("retry outlives the bind gap");
        let mut conn = conn;
        conn.write_all(b"quit\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "bye");
        drop(rebind); // serve_tcp never returns; leave the thread parked

        // a dead address exhausts the budget with the connect error
        assert!(client::connect_with_retry("127.0.0.1:1", 2, Duration::from_millis(1)).is_err());
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        let engine = Arc::new(engine());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let _ = serve_tcp(engine, listener);
            });
        }
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"query 1 5 40\nquit\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("score "), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "bye");
    }
}

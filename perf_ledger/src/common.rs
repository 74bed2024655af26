//! What the four workloads share: the run context, the report a workload
//! fills in, the artifact/events fixture made by `taser-serve train`, and
//! the readers for the child's `stats` and `metrics` replies.

use crate::json::{self, Value};
use crate::proc::{self, Server, TempDir};
use crate::spans::{span_stride, SpanId, Tracer};
use crate::stats;
use crate::wire::{Conn, Reply};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Layer names, as the repo's modules are called.
pub mod layer {
    pub const LOADGEN: &str = "loadgen";
    pub const PROTOCOL: &str = "taser-serve::protocol";
    pub const ENGINE: &str = "taser-serve::engine";
    pub const PIPELINE: &str = "taser-serve::pipeline";
    pub const SNAPSHOT: &str = "taser-serve::snapshot";
    pub const REPLICATION: &str = "taser-serve::replication";
    pub const WAL: &str = "taser-graph::wal";
    pub const INDEX: &str = "taser-index";
    pub const SAMPLE: &str = "taser-sample";
    pub const CACHE: &str = "taser-cache";
    pub const TRAINER: &str = "taser-core::trainer";
}

pub struct Ctx {
    /// The built `taser-serve` binary.
    pub bin: PathBuf,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass: record spans, read the child's counters, run probes.
    pub trace: bool,
    /// Smoke mode: one set-up, shortest probes; numbers are not comparable.
    pub quick: bool,
    pub tracer: Tracer,
}

/// Set-ups per pass: the median of three is what `setup_s` reports (one in
/// `--quick`).
pub fn setups(quick: bool) -> usize {
    if quick {
        1
    } else {
        3
    }
}

#[derive(Default)]
pub struct Report {
    /// Operations the run attempted (requests, tickets, epochs) and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every output check that did not hold; empty means `correct`.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layer metrics the run could not measure, with the reason.
    pub unmeasured: Vec<(&'static str, String)>,
    /// Doubts about the measurement itself (not about the program's
    /// outputs): printed, but they do not make the pass incorrect.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A metric read from another layer's counters: absent → unmeasured.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, why: &str) {
        match value {
            Some(v) if v.is_finite() => self.set(name, v),
            _ => self.unmeasured.push((name, why.to_string())),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The load generator's own counts, once `attempted`/`failed` are final.
    pub fn set_loadgen_counts(&mut self) {
        self.set("loadgen.sent", self.attempted as f64);
        self.set("loadgen.ok", (self.attempted - self.failed) as f64);
        self.set("loadgen.failed", self.failed as f64);
        self.set(
            "loadgen.fail_share",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
    }
}

/// Runs `setup` [`setups`] times, tearing each down before the next,
/// and returns the last one with the median set-up time in seconds.
pub fn repeat_setup<S>(
    ctx: &mut Ctx,
    root: SpanId,
    mut setup: impl FnMut(&Ctx) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut seconds = Vec::new();
    let mut live = None;
    for _ in 0..setups(ctx.quick) {
        drop(live.take());
        let t0 = ctx.tracer.now();
        let s = setup(ctx)?;
        let t1 = ctx.tracer.now();
        ctx.tracer.add(root, "setup", layer::LOADGEN, t0, t1, 0);
        seconds.push((t1 - t0) as f64 / 1e9);
        live = Some(s);
    }
    Ok((live.expect("at least one set-up"), stats::median(&seconds)))
}

/// Closes a workload's root span at the current time.
pub fn close_root(ctx: &mut Ctx, root: SpanId) {
    let end = ctx.tracer.now();
    ctx.tracer.spans[root as usize - 1].end_ns = end;
}

/// `a / b`, `None` when `b` is zero (a phase that did no such work).
pub fn ratio(a: f64, b: f64) -> Option<f64> {
    (b != 0.0).then(|| a / b)
}

/// The model artifact and seed events one `taser-serve train` run wrote.
pub struct Fixture {
    pub dir: TempDir,
    pub artifact: PathBuf,
    pub events_path: PathBuf,
    pub events: Vec<(u32, u32, f64)>,
}

impl Fixture {
    /// `taser-serve train --scale <scale> --seed <seed> --epochs 1`: the
    /// seed picks the synthetic dataset, so it picks every input.
    pub fn train(bin: &Path, backbone: &str, scale: &str, seed: u64) -> Result<Self, String> {
        let dir = TempDir::new("fixture");
        let artifact = dir.join("model.taser");
        let events_path = dir.join("events.txt");
        let args = [
            "train",
            "--out",
            artifact.to_str().expect("utf-8 path"),
            "--events-out",
            events_path.to_str().expect("utf-8 path"),
            "--backbone",
            backbone,
            "--scale",
            scale,
            "--epochs",
            "1",
            "--seed",
            &seed.to_string(),
        ]
        .map(String::from);
        proc::run_to_completion(bin, &args)?;
        let text =
            std::fs::read_to_string(&events_path).map_err(|e| format!("read events: {e}"))?;
        let events = parse_events(&text)?;
        if events.is_empty() {
            return Err("train wrote no events".into());
        }
        Ok(Fixture {
            dir,
            artifact,
            events_path,
            events,
        })
    }

    /// CLI arguments naming this fixture.
    pub fn serve_args(&self) -> Vec<String> {
        [
            "--artifact",
            self.artifact.to_str().expect("utf-8 path"),
            "--events",
            self.events_path.to_str().expect("utf-8 path"),
        ]
        .map(String::from)
        .to_vec()
    }
}

/// `u v t` lines, as `taser-serve train --events-out` writes them.
pub fn parse_events(text: &str) -> Result<Vec<(u32, u32, f64)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let parsed = (|| {
                Some((
                    it.next()?.parse().ok()?,
                    it.next()?.parse().ok()?,
                    it.next()?.parse().ok()?,
                ))
            })();
            parsed.ok_or_else(|| format!("bad events line {l:?}"))
        })
        .collect()
}

/// One `stats` reply, parsed; every accessor is `None` for a missing key.
pub struct StatsSnap(Value);

impl StatsSnap {
    pub fn take(conn: &mut Conn) -> Result<Self, String> {
        Self::from_json(&conn.ask("stats")?)
    }

    /// From the one-line JSON the `stats` verb (`ServeStats::to_json`) gives.
    pub fn from_json(line: &str) -> Result<Self, String> {
        json::parse(line)
            .map(StatsSnap)
            .map_err(|e| format!("stats reply is not JSON ({e})"))
    }

    pub fn get(&self, path: &str) -> Option<f64> {
        self.0.num_at(path)
    }
}

/// Counter deltas between two `stats` snapshots.
pub struct StatsDelta<'a> {
    pub before: &'a StatsSnap,
    pub after: &'a StatsSnap,
}

impl StatsDelta<'_> {
    pub fn of(&self, path: &str) -> Option<f64> {
        Some(self.after.get(path)? - self.before.get(path)?)
    }

    /// The server's own mean query latency (µs) over the interval, from the
    /// cumulative `mean_us` and `queries`.
    pub fn mean_latency_us(&self) -> Option<f64> {
        let (m1, n1) = (self.before.get("mean_us")?, self.before.get("queries")?);
        let (m2, n2) = (self.after.get("mean_us")?, self.after.get("queries")?);
        ratio(m2 * n2 - m1 * n1, n2 - n1)
    }

    /// `protocol.self_us`: the client's mean sent → reply time minus the
    /// server's own mean over the same interval — what the socket, the
    /// parse and the reply write cost. Negative would mean the client was
    /// faster than the server it waited for.
    pub fn fill_protocol_self(&self, client_mean_us: f64, r: &mut Report) {
        let self_us = self.mean_latency_us().map(|m| client_mean_us - m);
        r.set_opt("protocol.self_us", self_us, "stats mean_us/queries missing");
        r.check(self_us.is_none_or(|v| v >= 0.0), || {
            format!("protocol.self_us {self_us:?} is negative: client faster than server")
        });
    }

    /// Mean of `path` per `per` over the interval.
    pub fn per(&self, path: &str, per: &str) -> Option<f64> {
        ratio(self.of(path)?, self.of(per)?)
    }

    /// The query-path layer metrics every engine-backed workload reads the
    /// same way: stage time per scored query, batch fill, shed and cache.
    pub fn fill_query_layers(&self, r: &mut Report) {
        let why = "stats key missing or no queries in the interval";
        for (name, stage) in [
            ("admission.wait_ns", "admission_wait"),
            ("engine.batch_assembly_ns", "batch_assembly"),
            ("sample.ns", "sampling"),
            ("features.gather_ns", "feature_gather"),
            ("models.forward_ns", "packed_forward"),
            ("engine.respond_ns", "respond"),
        ] {
            r.set_opt(name, self.per(&format!("stage_ns.{stage}"), "queries"), why);
        }
        r.set_opt("admission.mean_batch", self.per("queries", "batches"), why);
        let offered = self
            .of("admitted")
            .zip(self.of("shed_full"))
            .map(|(a, s)| a + s);
        r.set_opt(
            "admission.shed_share",
            self.of("shed").zip(offered).and_then(|(s, o)| ratio(s, o)),
            why,
        );
        let (hits, misses, unknown) = (
            self.of("cache_hits"),
            self.of("cache_misses"),
            self.of("cache_unknown"),
        );
        let known = hits.zip(misses).map(|(h, m)| h + m);
        r.set_opt(
            "features.hit_rate",
            hits.zip(known).and_then(|(h, k)| ratio(h, k)),
            "no cached feature reads in the interval",
        );
        r.set_opt(
            "features.unknown_share",
            unknown.zip(known).and_then(|(u, k)| ratio(u, u + k)),
            "no feature reads in the interval",
        );
    }
}

/// Starts a server over `fixture` with `extra` flags and opens `conns`
/// client connections to it.
pub fn boot(
    ctx: &Ctx,
    fixture: &Fixture,
    extra: &[&str],
    primary: bool,
    conns: usize,
) -> Result<(Server, Vec<Conn>), String> {
    let mut args = fixture.serve_args();
    args.extend(extra.iter().map(|s| s.to_string()));
    let server = Server::start(&ctx.bin, &args, primary, &fixture.dir.join("server.log"))?;
    let conns = (0..conns)
        .map(|_| Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, conns))
}

/// `protocol::parse` per line, in-process on the lines the run sent.
pub fn time_parse(ctx: &mut Ctx, root: SpanId, lines: &[String]) -> f64 {
    let rounds = 20;
    ctx.tracer
        .scope(root, "probe:parse", layer::PROTOCOL, |_, _| {
            let t0 = Instant::now();
            for _ in 0..rounds {
                for line in lines {
                    let cmd = taser_serve::protocol::parse(std::hint::black_box(line));
                    assert!(matches!(std::hint::black_box(cmd), Ok(Some(_))));
                }
            }
            t0.elapsed().as_nanos() as f64 / (rounds * lines.len()).max(1) as f64
        })
}

/// Records a phase's requests as spans under `phase`: each kept request is
/// a `request` span from its due time to its reply, split into the wait
/// for the generator (`queue`, due → sent) and the round trip through the
/// program (`wire`, sent → reply). All three share the request id.
pub fn record_request_spans(
    tracer: &mut Tracer,
    phase: SpanId,
    wire_layer: &'static str,
    replies: &[Reply],
    id_base: u64,
) {
    let stride = span_stride(replies.len());
    for (i, r) in replies.iter().enumerate().step_by(stride) {
        let id = id_base + i as u64 + 1;
        let (due, sent, done) = (tracer.at(r.due), tracer.at(r.sent), tracer.at(r.done));
        let req = tracer.add(phase, "request", layer::LOADGEN, due, done, id);
        tracer.add(req, "queue", layer::LOADGEN, due, sent, id);
        tracer.add(req, "wire", wire_layer, sent, done, id);
    }
    tracer.count("requests", replies.len() as u64);
    tracer.count("request_spans", replies.len().div_ceil(stride) as u64);
}

/// p50 and sub-window tail of an open-loop query phase, plus how late the
/// generator ran. Replies that are not scores take the timeout as their
/// latency.
pub struct LatencySummary {
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_window_samples: usize,
    pub late_p99_us: f64,
    pub mean_sent_to_done_us: f64,
}

impl LatencySummary {
    /// The open-loop health metrics. A generator later than the median it
    /// reports has partly measured itself: the pass is marked unresolved
    /// (this machine stalls threads for milliseconds now and then, so that
    /// is a note, not a failed check).
    pub fn fill_loadgen(&self, r: &mut Report) {
        r.set("loadgen.late_p99_us", self.late_p99_us);
        r.set(
            "loadgen.tail_window_samples",
            self.tail_window_samples as f64,
        );
        if self.late_p99_us > self.p50_us {
            r.notes.push(format!(
                "unresolved: generator ran {:.0} us late (p99) against a p50 of {:.0} us",
                self.late_p99_us, self.p50_us
            ));
        }
    }
}

pub fn summarize_open_loop(replies: &[&Reply], start: Instant, span_s: f64) -> LatencySummary {
    let samples: Vec<(u64, f64)> = replies
        .iter()
        .map(|r| {
            (
                r.due.saturating_duration_since(start).as_nanos() as u64,
                r.latency_us(r.is_score()),
            )
        })
        .collect();
    let mut lats: Vec<f64> = samples.iter().map(|s| s.1).collect();
    stats::sort(&mut lats);
    let (tail_us, tail_window_samples) =
        stats::subwindow_p99(&samples, (span_s * 1e9) as u64, TAIL_WINDOWS);
    let mut late: Vec<f64> = replies
        .iter()
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e6)
        .collect();
    stats::sort(&mut late);
    let rtts: Vec<f64> = replies
        .iter()
        .filter(|r| r.is_score())
        .map(|r| r.done.duration_since(r.sent).as_secs_f64() * 1e6)
        .collect();
    LatencySummary {
        p50_us: stats::percentile(&lats, 0.5),
        tail_us,
        tail_window_samples,
        late_p99_us: stats::percentile(&late, 0.99),
        mean_sent_to_done_us: stats::mean(&rtts),
    }
}

/// Sub-windows the tail estimator takes the median over.
pub const TAIL_WINDOWS: usize = 3;

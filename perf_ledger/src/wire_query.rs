//! Workload `wire_query`: read-only link queries against a real
//! `taser-serve run --tcp` child. The protocol, admission and engine-wake
//! layers do nearly all the work here; a kernel or sampler change must not
//! move it.

use crate::common::{
    boot, close_root, layer, record_request_spans, repeat_setup, summarize_open_loop, time_parse,
    Ctx, Fixture, Report, StatsDelta, StatsSnap,
};
use crate::gen::{node_pairs, poisson_schedule, NodeSpace, Rng, SrcDist};
use crate::spans::ROOT;
use crate::stats;
use crate::wire::{
    closed_loop, cycle, on_each, open_loop, parse_score, Conn, Reply, Stop, Traffic,
};
use std::time::{Duration, Instant};

/// `taser-serve train --scale`: 15.7k seed events.
pub const SCALE: &str = "0.1";
/// Everything else is the CLI default — including the 5 s SLO: a tighter one
/// sheds a query whenever this shared machine stalls the child for a few
/// milliseconds, and a workload must be one on which no operation fails.
pub const SERVER_FLAGS: [&str; 2] = ["--index-backend", "incremental"];
pub const CONNS: usize = 2;
/// Outstanding requests per connection in the saturated phase.
pub const SAT_WINDOW: usize = 64;
/// Share of the measured window spent saturated; the rest is open loop.
pub const SAT_SHARE: f64 = 0.25;
/// Total open-loop arrival rate, queries/s, split evenly over connections.
pub const OPEN_RATE: f64 = 200.0;
/// Hot roots: a few sources take most queries, so caches are used.
pub const ZIPF_S: f64 = 1.1;
/// Replies compared with an in-process `ServeEngine::score`.
pub const CHECKED: usize = 256;
pub const WARMUP_PER_CONN: usize = 64;
/// Distinct query lines the saturated phase cycles through.
const SAT_POOL: usize = 4096;
/// Sequential round trips timed on an idle connection (traced pass).
const RTT_PROBES: usize = 25;

struct Query {
    src: u32,
    dst: u32,
    t: f64,
}

impl Query {
    fn line(&self) -> String {
        format!("query {} {} {}", self.src, self.dst, self.t)
    }
}

/// Queries stamped after the last seed event: the graph is never written.
fn queries(rng: &mut Rng, space: &NodeSpace, n: usize) -> Vec<Query> {
    node_pairs(rng, space, SrcDist::Zipf(ZIPF_S), n)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| Query {
            src,
            dst,
            t: space.t_last + 1.0 + (i % 1000) as f64,
        })
        .collect()
}

struct Setup {
    fixture: Fixture,
    server: crate::proc::Server,
    conns: Vec<Conn>,
    ctl: Conn,
    space: NodeSpace,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let fixture = Fixture::train(&ctx.bin, "graphmixer", SCALE, ctx.seed)?;
    let (server, mut conns) = boot(ctx, &fixture, &SERVER_FLAGS, false, CONNS + 1)?;
    let ctl = conns.pop().expect("control connection");
    let space = NodeSpace::from_events(&fixture.events);
    let mut rng = Rng::new(ctx.seed, 1);
    for conn in &mut conns {
        let lines: Vec<String> = queries(&mut rng, &space, WARMUP_PER_CONN)
            .iter()
            .map(Query::line)
            .collect();
        let replies = closed_loop(
            conn,
            cycle(&lines),
            WARMUP_PER_CONN,
            Stop::After(WARMUP_PER_CONN),
        );
        if let Some(bad) = replies.iter().find(|r| !r.is_score()) {
            return Err(format!("warm-up reply {:?}", bad.line));
        }
        conn.traffic = Traffic::default();
    }
    Ok(Setup {
        fixture,
        server,
        conns,
        ctl,
        space,
    })
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let root = ctx.tracer.add(ROOT, "wire_query", layer::LOADGEN, 0, 0, 0);

    let (live, setup_s) = repeat_setup(ctx, root, setup)?;
    let Setup {
        fixture,
        server,
        mut conns,
        mut ctl,
        space,
    } = live;
    r.set("setup_s", setup_s);

    // -- traced: idle round trips, before any load --
    if ctx.trace {
        let probes = if ctx.quick { 5 } else { RTT_PROBES };
        let mut rng = Rng::new(ctx.seed, 2);
        let mut rtts = Vec::new();
        ctx.tracer
            .scope(root, "probe:rtt_idle", layer::PROTOCOL, |t, parent| {
                for q in queries(&mut rng, &space, probes) {
                    let t0 = Instant::now();
                    let reply = ctl.ask(&q.line());
                    let t1 = Instant::now();
                    t.add(parent, "round_trip", layer::PROTOCOL, t.at(t0), t.at(t1), 0);
                    if reply.is_ok_and(|l| parse_score(&l).is_some()) {
                        rtts.push((t1 - t0).as_secs_f64() * 1e6);
                    }
                }
            });
        r.check(rtts.len() == probes, || {
            "idle probe got a non-score reply".into()
        });
        r.set_opt(
            "protocol.rtt_idle_us",
            (!rtts.is_empty()).then(|| stats::median(&rtts)),
            "no idle probe succeeded",
        );
    }
    let trace = ctx.trace;
    let snap = |ctl: &mut Conn| trace.then(|| StatsSnap::take(ctl)).transpose();
    let s0 = snap(&mut ctl)?;

    // -- phase sat: sliding-window closed loop on every connection --
    let sat_s = ctx.seconds * SAT_SHARE;
    let sat_lines: Vec<Vec<String>> = (0..CONNS)
        .map(|c| {
            queries(&mut Rng::new(ctx.seed, 10 + c as u64), &space, SAT_POOL)
                .iter()
                .map(Query::line)
                .collect()
        })
        .collect();
    let sat_start = Instant::now();
    let deadline = Stop::At(sat_start + Duration::from_secs_f64(sat_s));
    let sat: Vec<Vec<Reply>> = on_each(&mut conns, &sat_lines, |conn, lines| {
        closed_loop(conn, cycle(lines), SAT_WINDOW, deadline)
    });
    let sat_wall = sat_start.elapsed().as_secs_f64();
    let sat_ok: usize = sat.iter().flatten().filter(|r| r.is_score()).count();
    let sat_total: usize = sat.iter().map(Vec::len).sum();
    let qps = sat_ok as f64 / sat_wall;
    let s1 = snap(&mut ctl)?;

    // -- phase open: Poisson arrivals at a fixed rate, timed from due --
    let open_s = ctx.seconds - sat_s;
    let open_inputs: Vec<(Vec<Query>, Vec<u64>)> = (0..CONNS)
        .map(|c| {
            let mut rng = Rng::new(ctx.seed, 20 + c as u64);
            let due = poisson_schedule(&mut rng, OPEN_RATE / CONNS as f64, open_s);
            (queries(&mut rng, &space, due.len()), due)
        })
        .collect();
    let open_start = Instant::now() + Duration::from_millis(5);
    let open: Vec<Vec<Reply>> = on_each(&mut conns, &open_inputs, |conn, (qs, due)| {
        let lines: Vec<String> = qs.iter().map(Query::line).collect();
        open_loop(conn, &lines, due, open_start)
    });
    let s2 = snap(&mut ctl)?;
    let open_all: Vec<&Reply> = open.iter().flatten().collect();
    let lat = summarize_open_loop(&open_all, open_start, open_s);
    let open_ok = open_all.iter().filter(|rep| rep.is_score()).count();

    r.attempted = (sat_total + open_all.len()) as u64;
    r.failed = r.attempted - (sat_ok + open_ok) as u64;
    r.set("ops_per_s", qps);
    r.set("p50_us", lat.p50_us);
    r.set("tail_us", lat.tail_us);
    r.set_opt(
        "rss_mb",
        server.peak_rss_mb(),
        "child /proc status unreadable",
    );
    if let Some(bad) = sat
        .iter()
        .chain(&open)
        .flatten()
        .find(|rep| !rep.is_score())
    {
        r.violations.push(format!("reply {:?}", bad.line));
    }
    for (c, replies) in sat.iter().chain(&open).enumerate() {
        let fifo = replies.iter().enumerate().all(|(i, rep)| rep.index == i);
        r.check(fifo, || {
            format!("connection {} replies out of order", c % CONNS)
        });
    }

    // -- check: sampled replies equal an in-process score on the same inputs --
    check_against_engine(&fixture, &open, &open_inputs, &mut r)?;

    if ctx.trace {
        let (s0, s1, s2) = (
            s0.expect("traced"),
            s1.expect("traced"),
            s2.expect("traced"),
        );
        StatsDelta {
            before: &s0,
            after: &s2,
        }
        .fill_query_layers(&mut r);
        let open_delta = StatsDelta {
            before: &s1,
            after: &s2,
        };
        open_delta.fill_protocol_self(lat.mean_sent_to_done_us, &mut r);
        r.check(
            open_delta
                .of("queries")
                .is_none_or(|n| n as usize == open_ok),
            || "server scored a different number of open-phase queries than the client saw".into(),
        );
        let lines: Vec<String> = open_inputs
            .iter()
            .flat_map(|(qs, _)| qs.iter().map(Query::line))
            .collect();
        r.set("protocol.parse_ns", time_parse(ctx, root, &lines));
        let mut traffic = Traffic::default();
        conns.iter().for_each(|c| traffic.add(c.traffic));
        r.set("protocol.lines", traffic.lines_out as f64);
        r.set("protocol.bytes_in", traffic.bytes_out as f64);
        r.set("protocol.bytes_out", traffic.bytes_in as f64);
        let metrics = ctl.metrics()?;
        r.set_opt(
            "engine.worker_restarts",
            crate::json::prom_value(&metrics, "taser_worker_restarts_total"),
            "taser_worker_restarts_total absent from metrics",
        );
        r.set("loadgen.qps", qps);
        r.set_loadgen_counts();
        lat.fill_loadgen(&mut r);
        r.set("loadgen.seed_events", fixture.events.len() as f64);
        r.set("loadgen.graph_events", fixture.events.len() as f64);
        r.set("trace.ops_per_s", qps);
        for (name, start, span_s, phases) in [
            ("phase:sat", sat_start, sat_s, &sat),
            ("phase:open", open_start, open_s, &open),
        ] {
            let t0 = ctx.tracer.at(start);
            let phase = ctx.tracer.add(
                root,
                name,
                layer::LOADGEN,
                t0,
                t0 + (span_s * 1e9) as u64,
                0,
            );
            for (c, replies) in phases.iter().enumerate() {
                // request ids: connection in the high word, phase in bit 31
                let base = (c as u64 + 1) << 32 | u64::from(name == "phase:open") << 31;
                record_request_spans(&mut ctx.tracer, phase, layer::PROTOCOL, replies, base);
            }
        }
    }
    close_root(ctx, root);
    Ok(r)
}

fn check_against_engine(
    fixture: &Fixture,
    open: &[Vec<Reply>],
    inputs: &[(Vec<Query>, Vec<u64>)],
    r: &mut Report,
) -> Result<(), String> {
    use taser_graph::events::EventLog;
    use taser_models::ModelArtifact;
    use taser_serve::{IndexBackend, ServeConfig, ServeEngine};
    let artifact = ModelArtifact::load_file(&fixture.artifact).map_err(|e| e.to_string())?;
    let log = EventLog::from_unsorted(fixture.events.clone());
    let cfg = ServeConfig {
        index_backend: IndexBackend::Incremental,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(artifact, log, cfg).map_err(|e| e.to_string())?;
    let sampled: Vec<(&Query, f64)> = open
        .iter()
        .zip(inputs)
        .flat_map(|(replies, (qs, _))| {
            replies.iter().filter_map(|rep| {
                let p = parse_score(rep.line.as_deref().ok()?)?;
                Some((&qs[rep.index], p))
            })
        })
        .collect();
    let stride = sampled.len().div_ceil(CHECKED).max(1);
    let picked: Vec<&(&Query, f64)> = sampled.iter().step_by(stride).collect();
    let tickets: Vec<_> = picked
        .iter()
        .map(|(q, _)| engine.submit(q.src, q.dst, q.t))
        .collect();
    let mut checked = 0;
    for ((q, wire), ticket) in picked.iter().zip(tickets) {
        let local = ticket
            .map_err(|e| format!("in-process submit shed: {e}"))?
            .wait()
            .map_err(|e| format!("in-process score shed: {e}"))?;
        checked += 1;
        r.check((f64::from(local.prob) - wire).abs() <= 1e-5, || {
            format!(
                "query {} {} {}: wire {wire} != in-process {}",
                q.src, q.dst, q.t, local.prob
            )
        });
    }
    r.check(checked > 0, || {
        "no reply could be checked against the engine".into()
    });
    Ok(())
}

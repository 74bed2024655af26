//! Workload `engine_batch`: an in-process `ServeEngine` (no sockets, no
//! WAL) kept saturated with full batches of uniform-root TGAT queries.
//! Sampling, feature gather and the packed forward do the work; a change
//! to the wire path or session loop must show no change here.

use crate::common::{
    close_root, layer, ratio, repeat_setup, Ctx, Fixture, Report, StatsDelta, StatsSnap,
};
use crate::gen::{node_pairs, NodeSpace, Rng, SrcDist};
use crate::proc;
use crate::spans::{MAX_REQUEST_SPANS, ROOT};
use crate::stats::{self, LogHist};
use crate::wire::Stop;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use taser_graph::events::EventLog;
use taser_index::{IncIndexWriter, DEFAULT_SHARDS};
use taser_models::ModelArtifact;
use taser_serve::{
    IndexBackend, LinkQuery, ScorePipeline, ScoreScratch, ScoreTicket, ServeConfig, ServeEngine,
    ServeFeatureCache,
};

/// `taser-serve train --backbone tgat --scale`: 15.7k seed events; TGAT's
/// two hops fan each root out to n + n² neighbours.
pub const SCALE: &str = "0.1";
/// Tickets kept outstanding by the one submitter thread (8 full batches).
pub const OUTSTANDING: usize = 512;
/// Batch size of the direct-pipeline probe; the engine's `max_batch`.
pub const BATCH: usize = 64;
/// Replies compared with a direct `ScorePipeline::score_batch_into`.
pub const CHECKED: usize = 256;
pub const WARMUP: usize = 2048;
/// Distinct queries the submitter cycles through: far more roots than the
/// feature cache holds, so the working set is cache-hostile.
const QUERY_POOL: usize = 1 << 16;
/// Length of the direct-pipeline probe (traced pass).
const PIPELINE_PROBE_S: f64 = 1.5;

fn config() -> ServeConfig {
    ServeConfig {
        index_backend: IndexBackend::Incremental,
        ..ServeConfig::default()
    }
}

struct Setup {
    fixture: Fixture,
    engine: ServeEngine,
    queries: Vec<LinkQuery>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let fixture = Fixture::train(&ctx.bin, "tgat", SCALE, ctx.seed)?;
    let artifact = ModelArtifact::load_file(&fixture.artifact).map_err(|e| e.to_string())?;
    let log = EventLog::from_unsorted(fixture.events.clone());
    let engine = ServeEngine::new(artifact, log, config()).map_err(|e| e.to_string())?;
    let space = NodeSpace::from_events(&fixture.events);
    let queries: Vec<LinkQuery> = node_pairs(
        &mut Rng::new(ctx.seed, 40),
        &space,
        SrcDist::Uniform,
        QUERY_POOL,
    )
    .into_iter()
    .enumerate()
    .map(|(i, (src, dst))| LinkQuery {
        src,
        dst,
        t: space.t_last + 1.0 + (i % 1000) as f64,
    })
    .collect();
    let warm = saturate(&engine, &queries, Stop::After(WARMUP), false);
    if warm.failed > 0 {
        return Err(format!("{} warm-up tickets failed", warm.failed));
    }
    Ok(Setup {
        fixture,
        engine,
        queries,
    })
}

/// What a saturated phase came to. Everything here has a fixed size: the
/// harness shares its process with the engine, so a recorder that grew with
/// throughput would be charged to `rss_mb`.
struct Saturated {
    /// Submit → resolve latency of every resolved ticket, µs.
    latency: LogHist,
    /// Scores of the first `CHECKED` tickets, in submit order.
    first_probs: Vec<f32>,
    /// Resolved tickets whose score fell outside (0, 1).
    out_of_range: u64,
    failed: u64,
    /// Tickets resolved in each whole second of the phase.
    per_second: Vec<u64>,
    /// Traced pass only: time inside `ServeEngine::submit`, and (submit
    /// instant, latency µs) of every `TRACE_STRIDE`-th ticket.
    submit_ns: u64,
    sampled: Vec<(Instant, f64)>,
}

/// Tickets between two recorded ticket spans (traced pass).
const TRACE_STRIDE: u64 = 64;

/// One submitter keeps `OUTSTANDING` tickets in flight via `submit`/`wait`,
/// waiting oldest-first, so the engine's batches always fill.
fn saturate(engine: &ServeEngine, queries: &[LinkQuery], stop: Stop, trace: bool) -> Saturated {
    let mut out = Saturated {
        latency: LogHist::new(),
        first_probs: Vec::with_capacity(CHECKED),
        out_of_range: 0,
        failed: 0,
        per_second: Vec::new(),
        submit_ns: 0,
        sampled: Vec::with_capacity(if trace { MAX_REQUEST_SPANS } else { 0 }),
    };
    let mut pending: VecDeque<(Instant, ScoreTicket)> = VecDeque::with_capacity(OUTSTANDING);
    let mut next = 0usize;
    let start = Instant::now();
    loop {
        let room = OUTSTANDING - pending.len();
        let n = match stop {
            Stop::At(deadline) if Instant::now() < deadline => room,
            Stop::At(_) => 0,
            Stop::After(total) => room.min(total - next),
        };
        for _ in 0..n {
            let q = queries[next % queries.len()];
            next += 1;
            let t0 = Instant::now();
            let ticket = engine.submit(q.src, q.dst, q.t);
            if trace {
                out.submit_ns += t0.elapsed().as_nanos() as u64;
            }
            match ticket {
                Ok(t) => pending.push_back((t0, t)),
                Err(_) => out.failed += 1,
            }
        }
        let Some((t0, ticket)) = pending.pop_front() else {
            break;
        };
        match ticket.wait() {
            Ok(res) => {
                let us = t0.elapsed().as_secs_f64() * 1e6;
                let n = out.latency.count();
                out.latency.record(us);
                let second = start.elapsed().as_secs() as usize;
                if out.per_second.len() <= second {
                    out.per_second.resize(second + 1, 0);
                }
                out.per_second[second] += 1;
                if out.first_probs.len() < CHECKED {
                    out.first_probs.push(res.prob);
                }
                out.out_of_range += u64::from(!(res.prob > 0.0 && res.prob < 1.0));
                if trace && n.is_multiple_of(TRACE_STRIDE) && out.sampled.len() < MAX_REQUEST_SPANS
                {
                    out.sampled.push((t0, us));
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    // the last second is cut short by the deadline and the drain
    if out.per_second.len() > 1 {
        out.per_second.pop();
    }
    out
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let root = ctx
        .tracer
        .add(ROOT, "engine_batch", layer::LOADGEN, 0, 0, 0);

    let (live, setup_s) = repeat_setup(ctx, root, setup)?;
    let Setup {
        fixture,
        engine,
        queries,
    } = live;
    r.set("setup_s", setup_s);

    // the same one-line JSON the `stats` verb serves, read the same way
    let snap = || StatsSnap::from_json(&engine.stats().to_json());
    let before = snap()?;
    let phase_start = ctx.tracer.now();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let run = saturate(&engine, &queries, Stop::At(deadline), ctx.trace);
    let phase_end = ctx.tracer.now();
    let phase_wall_s = (phase_end - phase_start) as f64 / 1e9;
    let after = snap()?;

    // median over whole seconds: a machine stall of a second or two moves
    // a couple of windows, not the metric
    let resolved = run.latency.count();
    let per_second: Vec<f64> = run.per_second.iter().map(|&n| n as f64).collect();
    let qps = if ctx.seconds >= 3.0 {
        stats::median(&per_second)
    } else {
        resolved as f64 / phase_wall_s
    };
    r.attempted = resolved + run.failed;
    r.failed = run.failed;
    r.check(resolved > 0, || "no ticket resolved".into());
    if resolved == 0 {
        return Ok(r);
    }
    r.set("ops_per_s", qps);
    r.set("p50_us", run.latency.percentile(0.5));
    r.set("tail_us", run.latency.percentile(0.99));
    r.set_opt(
        "rss_mb",
        proc::own_peak_rss_mb(),
        "/proc/self/status unreadable",
    );
    r.check(run.out_of_range == 0, || {
        format!("{} scores fell outside (0, 1)", run.out_of_range)
    });

    // -- check + probe share one direct pipeline over the same inputs --
    let artifact = ModelArtifact::load_file(&fixture.artifact).map_err(|e| e.to_string())?;
    let (pipeline, edge_feats) = ScorePipeline::new(artifact, None).map_err(|e| e.to_string())?;
    let cfg = config();
    let feats = ServeFeatureCache::new(
        edge_feats,
        cfg.cache_ratio,
        cfg.cache_epsilon,
        cfg.cache_epoch_requests,
        cfg.seed,
    );
    let log = EventLog::from_unsorted(fixture.events.clone());
    let index = IncIndexWriter::from_log(&log, log.num_nodes(), DEFAULT_SHARDS).publish();
    let mut scratch = ScoreScratch::new();
    let mut probs = Vec::new();
    // tickets resolve in submit order, so (with none failed) the first
    // CHECKED scores answer the first CHECKED queries
    let checked = &queries[..run.first_probs.len()];
    pipeline.score_batch_into(&*index, 0, checked, &feats, &mut scratch, &mut probs);
    for (i, (engine_prob, direct)) in run.first_probs.iter().zip(&probs).enumerate() {
        r.check((engine_prob - direct).abs() <= 1e-5, || {
            format!("query {i}: engine {engine_prob} != direct pipeline {direct}")
        });
    }

    if ctx.trace {
        StatsDelta {
            before: &before,
            after: &after,
        }
        .fill_query_layers(&mut r);
        r.set_opt(
            "admission.submit_ns",
            ratio(run.submit_ns as f64, r.attempted as f64),
            "no submit calls",
        );
        r.set("engine.worker_restarts", engine.worker_restarts() as f64);
        let probe_s = if ctx.quick { 0.3 } else { PIPELINE_PROBE_S };
        let pipeline_qps =
            ctx.tracer
                .scope(root, "probe:pipeline", layer::PIPELINE, |t, parent| {
                    let t0 = Instant::now();
                    let mut scored = 0usize;
                    let mut calls = 0usize;
                    while t0.elapsed().as_secs_f64() < probe_s {
                        for chunk in queries.chunks(BATCH) {
                            let c0 = t.now();
                            pipeline.score_batch_into(
                                &*index,
                                0,
                                chunk,
                                &feats,
                                &mut scratch,
                                &mut probs,
                            );
                            std::hint::black_box(&probs);
                            if calls.is_multiple_of(64) {
                                t.add(parent, "score_batch_into", layer::PIPELINE, c0, t.now(), 0);
                            }
                            calls += 1;
                            scored += chunk.len();
                            if t0.elapsed().as_secs_f64() >= probe_s {
                                break;
                            }
                        }
                    }
                    t.count("pipeline_batches", calls as u64);
                    scored as f64 / t0.elapsed().as_secs_f64()
                });
        r.set("pipeline.qps", pipeline_qps);
        // the engine scores on `workers` threads, the probe on one
        r.set(
            "engine.overhead_ratio",
            cfg.workers as f64 * pipeline_qps / qps,
        );
        r.set("loadgen.qps", qps);
        r.set_loadgen_counts();
        r.set("loadgen.seed_events", fixture.events.len() as f64);
        r.set_opt(
            "loadgen.graph_events",
            after.get("graph_events"),
            "stats key missing",
        );
        r.set("trace.ops_per_s", qps);
        let phase = ctx.tracer.add(
            root,
            "phase:saturated",
            layer::LOADGEN,
            phase_start,
            phase_end,
            0,
        );
        for (i, (t0, lat_us)) in run.sampled.iter().enumerate() {
            let start = ctx.tracer.at(*t0);
            let end = start + (lat_us * 1e3) as u64;
            let id = i as u64 * TRACE_STRIDE + 1;
            ctx.tracer
                .add(phase, "ticket", layer::ENGINE, start, end, id);
        }
        ctx.tracer.count("tickets", resolved);
    }
    close_root(ctx, root);
    Ok(r)
}

//! Workload `wire_mixed`: one connection ingests flat out while another
//! queries the moving graph at a fixed rate, on a durable node (WAL,
//! checkpoints, index publish). Afterwards the node is killed and
//! restarted on its directory, and a fresh replica is attached. The writer
//! path does the work; scoring does little.

use crate::common::{
    boot, close_root, layer, ratio, record_request_spans, repeat_setup, summarize_open_loop,
    time_parse, Ctx, Fixture, Report, StatsDelta, StatsSnap,
};
use crate::gen::{node_pairs, poisson_schedule, NodeSpace, Rng, SrcDist};
use crate::json::{self, prom_value};
use crate::proc::Server;
use crate::spans::{SpanId, ROOT};
use crate::stats;
use crate::wire::{closed_loop, cycle, open_loop, parse_digest, Conn, Reply, Stop, Traffic};
use crate::wire_query::{SCALE, ZIPF_S};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Spelled out (they are the CLI defaults) because the flush-boundary
/// padding below depends on them.
pub const CHECKPOINT_EVERY: u64 = 10_000;
pub const WAL_FLUSH_EVERY: u64 = 64;
/// Outstanding `ingest` lines on the writer connection.
pub const INGEST_WINDOW: usize = 256;
/// Open-loop query rate on the reader connection, queries/s.
pub const QUERY_RATE: f64 = 100.0;
/// Events ingested while the replica is stopped (traced pass), which it
/// then has to catch up on.
pub const CATCHUP_EVENTS: usize = 10_000;
/// Events pushed through each in-process layer probe (traced pass).
pub const PROBE_EVENTS: usize = 50_000;
const WARMUP: usize = 64;
/// Distinct `(src, dst)` pairs the ingest stream cycles through.
const PAIR_POOL: usize = 8192;
/// Queries are stamped far past anything the run can ingest.
const QUERY_T_AHEAD: f64 = 1e9;

fn server_flags(wal_dir: &str) -> Vec<String> {
    [
        "--index-backend",
        "incremental",
        "--wal-dir",
        wal_dir,
        "--checkpoint-every",
        &CHECKPOINT_EVERY.to_string(),
        "--wal-flush-every",
        &WAL_FLUSH_EVERY.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// The ingest stream: event `i` is `pairs[i % n]` at `t0 + i`, so the
/// stream is chronological and any prefix of it can be regenerated.
struct IngestStream {
    pairs: Vec<(u32, u32)>,
    t0: f64,
}

impl IngestStream {
    fn new(seed: u64, space: &NodeSpace) -> Self {
        IngestStream {
            pairs: node_pairs(
                &mut Rng::new(seed, 30),
                space,
                SrcDist::Zipf(ZIPF_S),
                PAIR_POOL,
            ),
            t0: space.t_last + 1.0,
        }
    }

    fn event(&self, i: usize) -> (u32, u32, f64) {
        let (src, dst) = self.pairs[i % self.pairs.len()];
        (src, dst, self.t0 + i as f64)
    }

    /// A `closed_loop` generator for events `from..`.
    fn lines(&self, from: usize) -> impl FnMut(usize, &mut String) + '_ {
        move |i, out| {
            let (src, dst, t) = self.event(from + i);
            let _ = write!(out, "ingest {src} {dst} {t}");
        }
    }
}

/// How many more ingests make every acknowledged one reach the OS: the WAL
/// buffers `WAL_FLUSH_EVERY` records, and a checkpoint (every
/// `CHECKPOINT_EVERY`) persists everything and restarts the count. A
/// `kill -9` after this many loses nothing that was acknowledged, so the
/// restarted node must present the same digest.
fn pad_to_flush_boundary(ingested: u64) -> u64 {
    let since_ckpt = ingested % CHECKPOINT_EVERY;
    let to_flush = (WAL_FLUSH_EVERY - since_ckpt % WAL_FLUSH_EVERY) % WAL_FLUSH_EVERY;
    to_flush.min(CHECKPOINT_EVERY - since_ckpt)
}

/// The durable node under test with its writer and control connections.
struct Primary {
    server: Server,
    writer: Conn,
    ctl: Conn,
}

struct Setup {
    fixture: Fixture,
    primary: Primary,
    reader: Conn,
    space: NodeSpace,
    stream: IngestStream,
}

fn query_lines(rng: &mut Rng, space: &NodeSpace, n: usize) -> Vec<String> {
    node_pairs(rng, space, SrcDist::Zipf(ZIPF_S), n)
        .into_iter()
        .map(|(src, dst)| format!("query {src} {dst} {}", space.t_last + QUERY_T_AHEAD))
        .collect()
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let fixture = Fixture::train(&ctx.bin, "graphmixer", SCALE, ctx.seed)?;
    let wal_dir = fixture.dir.join("wal");
    let flags = server_flags(wal_dir.to_str().expect("utf-8 path"));
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();
    let (server, mut conns) = boot(ctx, &fixture, &flag_refs, false, 3)?;
    let ctl = conns.pop().expect("control connection");
    let mut reader = conns.pop().expect("reader connection");
    let mut writer = conns.pop().expect("writer connection");
    let space = NodeSpace::from_events(&fixture.events);
    let stream = IngestStream::new(ctx.seed, &space);
    let warm_q = query_lines(&mut Rng::new(ctx.seed, 31), &space, WARMUP);
    let replies = closed_loop(&mut reader, cycle(&warm_q), WARMUP, Stop::After(WARMUP));
    if let Some(bad) = replies.iter().find(|r| !r.is_score()) {
        return Err(format!("warm-up query reply {:?}", bad.line));
    }
    let acks = closed_loop(&mut writer, stream.lines(0), WARMUP, Stop::After(WARMUP));
    if let Some(bad) = acks.iter().find(|r| r.eid().is_none()) {
        return Err(format!("warm-up ingest reply {:?}", bad.line));
    }
    writer.traffic = Traffic::default();
    reader.traffic = Traffic::default();
    Ok(Setup {
        fixture,
        primary: Primary {
            server,
            writer,
            ctl,
        },
        reader,
        space,
        stream,
    })
}

fn digest_of(conn: &mut Conn) -> Result<String, String> {
    let line = conn.ask("digest")?;
    parse_digest(&line)
        .map(str::to_string)
        .ok_or(format!("digest reply {line:?}"))
}

/// Polls `repl` until the node's feed position reaches `target`.
fn await_position(conn: &mut Conn, target: u64, budget: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let status = json::parse(&conn.ask("repl")?).map_err(|e| format!("repl reply: {e}"))?;
        let at = status
            .num_at("next_eid")
            .ok_or("repl reply has no next_eid")?;
        if at as u64 >= target {
            return Ok(());
        }
        if t0.elapsed() > budget {
            return Err(format!("replica stuck at {at} of {target}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let root = ctx.tracer.add(ROOT, "wire_mixed", layer::LOADGEN, 0, 0, 0);

    let (live, setup_s) = repeat_setup(ctx, root, setup)?;
    let Setup {
        fixture,
        mut primary,
        mut reader,
        space,
        stream,
    } = live;
    r.set("setup_s", setup_s);
    let seed_events = fixture.events.len() as u64;

    // -- the measured window: ingest closed loop beside query open loop --
    let mut qrng = Rng::new(ctx.seed, 32);
    let due = poisson_schedule(&mut qrng, QUERY_RATE, ctx.seconds);
    let q_lines = query_lines(&mut qrng, &space, due.len());
    let before = ctx
        .trace
        .then(|| StatsSnap::take(&mut primary.ctl))
        .transpose()?;
    let metrics_before = ctx.trace.then(|| primary.ctl.metrics()).transpose()?;
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let done = AtomicBool::new(false);
    let (acks, q_replies, unpublished) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            closed_loop(
                &mut primary.writer,
                stream.lines(WARMUP),
                INGEST_WINDOW,
                Stop::At(deadline),
            )
        });
        let query = s.spawn(|| open_loop(&mut reader, &q_lines, &due, start));
        // traced: how far the published snapshot trails the writer, 2 Hz
        let sampler = ctx.trace.then(|| {
            s.spawn(|| {
                let mut samples = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    if let Ok(text) = primary.ctl.metrics() {
                        samples.extend(prom_value(&text, "taser_index_unpublished_appends"));
                    }
                    std::thread::sleep(Duration::from_millis(500));
                }
                samples
            })
        });
        let acks = ingest.join().expect("ingest thread panicked");
        let q_replies = query.join().expect("query thread panicked");
        done.store(true, Ordering::SeqCst);
        let unpublished = sampler.map(|h| h.join().expect("sampler thread panicked"));
        (acks, q_replies, unpublished)
    });
    // the closed loop drains after the deadline: rate over first send → last ack
    let wall = acks.last().map_or(ctx.seconds, |a| {
        a.done.saturating_duration_since(start).as_secs_f64()
    });
    let mut traffic = primary.writer.traffic;
    traffic.add(reader.traffic);
    let after = ctx
        .trace
        .then(|| StatsSnap::take(&mut primary.ctl))
        .transpose()?;
    let metrics_after = ctx.trace.then(|| primary.ctl.metrics()).transpose()?;

    let acked = acks.iter().filter(|a| a.eid().is_some()).count();
    let ingest_eps = acked as f64 / wall;
    let q_ok = q_replies.iter().filter(|q| q.is_score()).count();
    let q_all: Vec<&Reply> = q_replies.iter().collect();
    let lat = summarize_open_loop(&q_all, start, ctx.seconds);
    r.attempted = (acks.len() + q_replies.len()) as u64;
    r.failed = r.attempted - (acked + q_ok) as u64;
    r.set("ops_per_s", ingest_eps);
    r.set("p50_us", lat.p50_us);
    r.set("tail_us", lat.tail_us);
    r.set_opt(
        "rss_mb",
        primary.server.peak_rss_mb(),
        "child /proc status unreadable",
    );
    if let Some(bad) = acks.iter().find(|a| a.eid().is_none()) {
        r.violations.push(format!("ingest reply {:?}", bad.line));
    }
    if let Some(bad) = q_replies.iter().find(|q| !q.is_score()) {
        r.violations.push(format!("query reply {:?}", bad.line));
    }
    // eids dense: ack i carries the i-th id after the seed and warm-up
    let first_eid = seed_events + WARMUP as u64;
    let dense = acks
        .iter()
        .enumerate()
        .all(|(i, a)| a.eid().is_none_or(|e| e == first_eid + i as u64));
    r.check(dense, || {
        "ingest acks do not carry dense, ordered eids".into()
    });
    let ack_max_ms = acks
        .iter()
        .map(|a| a.done.duration_since(a.sent).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);

    drop(reader);
    let ingested = (WARMUP + acks.len()) as u64;
    let mut node =
        crash_recover_replicate(ctx, root, &fixture, &stream, primary, ingested, &mut r)?;
    let (total, recovery_us) = (node.total, node.recovery_us);

    if ctx.trace {
        let (before, after) = (before.expect("traced"), after.expect("traced"));
        let window = StatsDelta {
            before: &before,
            after: &after,
        };
        window.fill_query_layers(&mut r);
        window.fill_protocol_self(lat.mean_sent_to_done_us, &mut r);
        let mut sent_lines = q_lines.clone();
        let mut gen = stream.lines(WARMUP);
        sent_lines.extend((0..q_lines.len()).map(|i| {
            let mut line = String::new();
            gen(i, &mut line);
            line
        }));
        r.set("protocol.parse_ns", time_parse(ctx, root, &sent_lines));
        r.set("protocol.lines", traffic.lines_out as f64);
        r.set("protocol.bytes_in", traffic.bytes_out as f64);
        r.set("protocol.bytes_out", traffic.bytes_in as f64);
        r.set("snapshot.ack_max_ms", ack_max_ms);
        r.set_opt(
            "snapshot.unpublished_mean",
            unpublished
                .filter(|u| !u.is_empty())
                .map(|u| stats::mean(&u)),
            "taser_index_unpublished_appends absent from metrics",
        );
        r.set_opt(
            "snapshot.recover_ms",
            recovery_us.map(|us| us / 1e3),
            "taser_recovery_us absent from metrics",
        );
        r.set_opt(
            "snapshot.replay_eps",
            recovery_us.and_then(|us| ratio(total as f64, us / 1e6)),
            "taser_recovery_us absent from metrics",
        );
        let (mb, ma) = (
            metrics_before.expect("traced"),
            metrics_after.expect("traced"),
        );
        let hist = |suffix: &str| {
            let name = format!("taser_index_publish_us_{suffix}");
            Some(prom_value(&ma, &name)? - prom_value(&mb, &name)?)
        };
        r.set_opt(
            "index.publish_us",
            hist("sum_us")
                .zip(hist("count"))
                .and_then(|(s, c)| ratio(s, c)),
            "taser_index_publish_us histogram absent or no publish in the window",
        );
        r.set_opt(
            "engine.worker_restarts",
            prom_value(&ma, "taser_worker_restarts_total"),
            "taser_worker_restarts_total absent from metrics",
        );
        r.set("replication.bootstrap_ms", node.bootstrap_ms);

        catch_up(ctx, root, &stream, &mut node, &mut r)?;
        in_process_probes(ctx, root, &fixture, &stream, &mut r)?;

        r.set("loadgen.ingest_eps", ingest_eps);
        r.set("loadgen.qps", q_ok as f64 / ctx.seconds);
        r.set_loadgen_counts();
        lat.fill_loadgen(&mut r);
        r.set("loadgen.graph_events", total as f64);
        r.set("loadgen.seed_events", seed_events as f64);
        r.set("trace.ops_per_s", ingest_eps);
        let t0 = ctx.tracer.at(start);
        let phase = ctx.tracer.add(
            root,
            "phase:mixed",
            layer::LOADGEN,
            t0,
            t0 + (ctx.seconds * 1e9) as u64,
            0,
        );
        record_request_spans(&mut ctx.tracer, phase, layer::SNAPSHOT, &acks, 1 << 32);
        record_request_spans(&mut ctx.tracer, phase, layer::PROTOCOL, &q_replies, 2 << 32);
    }
    close_root(ctx, root);
    Ok(r)
}

/// The node after the window: the restarted primary and a fresh replica,
/// each with a connection, and what their boots measured.
struct Aftermath {
    /// Held, not read: the replica tails it for as long as this lives.
    _primary: Server,
    pconn: Conn,
    replica: Server,
    rconn: Conn,
    /// Events ingested over the wire so far (warm-up, window, padding).
    ingested: u64,
    /// Events the node holds: seed + `ingested`.
    total: u64,
    recovery_us: Option<f64>,
    bootstrap_ms: f64,
}

/// Afterwards, on every pass: pad the stream to a flush boundary, take the
/// primary's digest, `kill -9` it, restart it on the same directory as a
/// replicating primary, attach an empty replica — and require all three
/// digests to agree.
fn crash_recover_replicate(
    ctx: &mut Ctx,
    root: SpanId,
    fixture: &Fixture,
    stream: &IngestStream,
    before_crash: Primary,
    mut ingested: u64,
    r: &mut Report,
) -> Result<Aftermath, String> {
    let Primary {
        server,
        mut writer,
        mut ctl,
    } = before_crash;
    let pad = pad_to_flush_boundary(ingested) as usize;
    let padded = closed_loop(
        &mut writer,
        stream.lines(ingested as usize),
        INGEST_WINDOW,
        Stop::After(pad),
    );
    r.check(padded.iter().all(|a| a.eid().is_some()), || {
        "padding ingest failed".into()
    });
    ingested += pad as u64;
    let total = fixture.events.len() as u64 + ingested;
    let primary_digest = digest_of(&mut writer)?;
    let graph_events = StatsSnap::take(&mut ctl)?.get("graph_events");
    r.check(graph_events == Some(total as f64), || {
        format!("primary holds {graph_events:?} events, client was acked {total}")
    });
    drop((writer, ctl));
    drop(server); // SIGKILL: the crash the recovery path is measured against

    let wal_dir = fixture.dir.join("wal");
    let flags = server_flags(wal_dir.to_str().expect("utf-8 path"));
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();
    let t0 = ctx.tracer.now();
    let (primary, mut conns) = boot(ctx, fixture, &flag_refs, true, 1)?;
    let t1 = ctx.tracer.now();
    ctx.tracer.add(root, "recover", layer::SNAPSHOT, t0, t1, 0);
    let mut pconn = conns.pop().expect("primary connection");
    let recovered_digest = digest_of(&mut pconn)?;
    r.check(recovered_digest == primary_digest, || {
        format!("restarted node digest {recovered_digest} != pre-crash {primary_digest}")
    });
    let recovery_us = prom_value(&pconn.metrics()?, "taser_recovery_us");

    let replica_dir = fixture.dir.join("wal_replica");
    let replica_args: Vec<String> = [
        "--artifact",
        fixture.artifact.to_str().expect("utf-8 path"),
        "--index-backend",
        "incremental",
        "--wal-dir",
        replica_dir.to_str().expect("utf-8 path"),
        "--replicate-from",
        primary
            .repl_addr
            .as_deref()
            .expect("primary has a repl address"),
    ]
    .map(String::from)
    .to_vec();
    let t0 = ctx.tracer.now();
    let replica = Server::start(
        &ctx.bin,
        &replica_args,
        false,
        &fixture.dir.join("replica.log"),
    )?;
    let mut rconn = Conn::open(&replica.addr)?;
    await_position(&mut rconn, total, Duration::from_secs(30))?;
    let t1 = ctx.tracer.now();
    ctx.tracer
        .add(root, "replica_bootstrap", layer::REPLICATION, t0, t1, 0);
    let replica_digest = digest_of(&mut rconn)?;
    r.check(replica_digest == primary_digest, || {
        format!("replica digest {replica_digest} != primary {primary_digest}")
    });
    Ok(Aftermath {
        _primary: primary,
        pconn,
        replica,
        rconn,
        ingested,
        total,
        recovery_us,
        bootstrap_ms: (t1 - t0) as f64 / 1e6,
    })
}

/// Traced pass: stop the replica, write past it, let it go, and time how
/// fast it catches up; the two digests must agree again afterwards.
fn catch_up(
    ctx: &mut Ctx,
    root: SpanId,
    stream: &IngestStream,
    node: &mut Aftermath,
    r: &mut Report,
) -> Result<(), String> {
    node.replica.signal("STOP")?;
    let n = if ctx.quick { 1_000 } else { CATCHUP_EVENTS };
    let n = n + pad_to_flush_boundary(node.ingested + n as u64) as usize;
    let from = node.ingested as usize;
    let more = closed_loop(
        &mut node.pconn,
        stream.lines(from),
        INGEST_WINDOW,
        Stop::After(n),
    );
    r.check(more.iter().all(|a| a.eid().is_some()), || {
        "catch-up ingest failed".into()
    });
    let t0 = ctx.tracer.now();
    node.replica.signal("CONT")?;
    await_position(
        &mut node.rconn,
        node.total + n as u64,
        Duration::from_secs(30),
    )?;
    let t1 = ctx.tracer.now();
    ctx.tracer
        .add(root, "replica_catchup", layer::REPLICATION, t0, t1, 0);
    r.set_opt(
        "replication.catchup_eps",
        ratio(n as f64, (t1 - t0) as f64 / 1e9),
        "catch-up took no measurable time",
    );
    let (pd, rd) = (digest_of(&mut node.pconn)?, digest_of(&mut node.rconn)?);
    r.check(pd == rd, || {
        format!("after catch-up replica digest {rd} != primary {pd}")
    });
    Ok(())
}

/// Times each writer-path layer's front-door call in-process, on the first
/// `PROBE_EVENTS` events of the stream the child was sent.
fn in_process_probes(
    ctx: &mut Ctx,
    root: SpanId,
    fixture: &Fixture,
    stream: &IngestStream,
    r: &mut Report,
) -> Result<(), String> {
    use taser_graph::events::{Event, EventLog};
    use taser_graph::wal::{EventWal, WalFaults};
    use taser_index::{IncIndexWriter, DEFAULT_SHARDS};
    use taser_serve::{DurabilityConfig, IndexBackend, SnapshotStore};

    let n = if ctx.quick { 2_000 } else { PROBE_EVENTS };
    let log = EventLog::from_unsorted(fixture.events.clone());
    let num_nodes = log.num_nodes();
    let per_event = |ns: u64| ns as f64 / n as f64;
    let io = |e: std::io::Error| e.to_string();

    let mut writer = IncIndexWriter::from_log(&log, num_nodes, DEFAULT_SHARDS);
    let ns = ctx
        .tracer
        .scope(root, "probe:index_append", layer::INDEX, |t, _| {
            let t0 = t.now();
            for i in 0..n {
                let (src, dst, at) = stream.event(i);
                std::hint::black_box(writer.append(src, dst, at));
            }
            t.now() - t0
        });
    r.set("index.append_ns", per_event(ns));

    let wal_dir = fixture.dir.join("probe_wal");
    std::fs::create_dir_all(&wal_dir).map_err(io)?;
    let (mut wal, _) = EventWal::open(
        wal_dir.join("events.wal"),
        WAL_FLUSH_EVERY as usize,
        WalFaults::default(),
    )
    .map_err(io)?;
    let header = wal.len_bytes();
    let ns = ctx
        .tracer
        .scope(root, "probe:wal_append", layer::WAL, |t, _| {
            let t0 = t.now();
            for i in 0..n {
                let (src, dst, at) = stream.event(i);
                let ev = Event {
                    src,
                    dst,
                    t: at,
                    eid: i as u32,
                };
                wal.append(&ev).expect("append to a fresh WAL");
            }
            t.now() - t0
        });
    wal.flush().map_err(io)?;
    r.set("wal.append_ns", per_event(ns));
    r.set(
        "wal.bytes_per_event",
        (wal.len_bytes() - header) as f64 / n as f64,
    );

    let durability = DurabilityConfig {
        dir: fixture.dir.join("probe_store"),
        checkpoint_every: CHECKPOINT_EVERY,
        wal_flush_every: WAL_FLUSH_EVERY as usize,
    };
    let (store, _) = SnapshotStore::durable(
        log,
        num_nodes,
        256,
        IndexBackend::Incremental,
        durability,
        WalFaults::default(),
    )
    .map_err(io)?;
    let ns = ctx
        .tracer
        .scope(root, "probe:snapshot_ingest", layer::SNAPSHOT, |t, _| {
            let t0 = t.now();
            for i in 0..n {
                let (src, dst, at) = stream.event(i);
                store.ingest(src, dst, at).expect("chronological ingest");
            }
            t.now() - t0
        });
    r.set("snapshot.ingest_ns", per_event(ns));
    let ns = ctx
        .tracer
        .scope(root, "probe:checkpoint", layer::SNAPSHOT, |t, _| {
            let t0 = t.now();
            store.checkpoint_now().expect("checkpoint");
            t.now() - t0
        });
    r.set("snapshot.ckpt_ms", ns as f64 / 1e6);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_lands_on_a_flush_or_checkpoint_boundary() {
        assert_eq!(pad_to_flush_boundary(0), 0);
        assert_eq!(pad_to_flush_boundary(64), 0);
        assert_eq!(pad_to_flush_boundary(65), 63);
        assert_eq!(
            pad_to_flush_boundary(10_000),
            0,
            "a checkpoint just persisted everything"
        );
        // 9990 since the checkpoint: the checkpoint at 10_000 comes before the next flush
        assert_eq!(pad_to_flush_boundary(9_990), 10);
        assert_eq!(
            pad_to_flush_boundary(10_001),
            63,
            "the count restarts after a checkpoint"
        );
        for n in 0..30_000u64 {
            let total = n + pad_to_flush_boundary(n);
            assert!(
                (total % CHECKPOINT_EVERY).is_multiple_of(WAL_FLUSH_EVERY),
                "{n}"
            );
        }
    }

    #[test]
    fn ingest_stream_is_chronological_and_replayable() {
        let space = NodeSpace::from_events(&[(0, 10, 1.0), (3, 11, 7.0)]);
        let s = IngestStream::new(5, &space);
        let mut gen = s.lines(100);
        let mut line = String::new();
        gen(2, &mut line);
        let (src, dst, t) = s.event(102);
        assert_eq!(line, format!("ingest {src} {dst} {t}"));
        assert_eq!(t, 8.0 + 102.0);
        assert!(s.event(1).2 > s.event(0).2);
    }
}

//! The `taser-serve` CLI: train-and-export a model, then serve it online.
//!
//! ```text
//! taser-serve train --out model.taser [--events-out events.txt]
//!     [--backbone graphmixer|tgat] [--scale 0.01] [--epochs 1] [--seed 42]
//!
//! taser-serve run --artifact model.taser [--events events.txt]
//!     [--tcp 127.0.0.1:7171] [--workers 2] [--max-batch 64]
//!     [--max-wait-ms 2] [--slo-us 5000000] [--queue-cap 4096] [--lanes 2]
//!     [--publish-every 256] [--cache-ratio 0.2]
//!     [--index-backend rebuild|incremental] [--trace-out trace.json]
//!     [--no-health] [--slo-target 0.99]
//!     [--wal-dir state/] [--checkpoint-every 10000] [--wal-flush-every 64]
//!     [--repl-listen addr] [--replicate-to addr] [--replicate-from addr]
//! ```
//!
//! `--wal-dir <dir>` makes ingest **crash-safe**: every accepted event is
//! framed into a CRC-checked write-ahead log under `<dir>` before the
//! `ingested` reply, and every `--checkpoint-every` events the full
//! stream is checkpointed atomically (WAL reset). Restarting with the
//! same `--wal-dir` recovers checkpoint + WAL tail and reproduces the
//! pre-crash graph and index bit-identically; when the directory holds
//! recovered state, `--events` is ignored (the directory is the seed).
//!
//! `--trace-out <path>` enables span tracing at boot and, when the stdin
//! session ends, writes a chrome://tracing / Perfetto-loadable JSON dump of
//! the per-stage spans to `<path>`. TCP sessions have no shutdown point to
//! dump at — clients there issue the `trace` protocol verb instead, which
//! returns the same JSON on demand over any transport (stdin included).
//!
//! The health watchdog is on by default: `health`, `watch <n>`, and
//! `profile` protocol verbs answer from it, and `--slo-target` sets the
//! attainment target its burn-rate alerts budget against. `--no-health`
//! disables the watchdog thread and the occupancy sampler entirely.
//!
//! `train` fits a small model on the synthetic Wikipedia-style dataset and
//! writes the serving artifact (plus, optionally, the training event log as
//! `u v t` lines so `run` can seed the live graph with history). `run`
//! speaks the line protocol of `taser_serve::protocol` on stdin/stdout, or
//! on TCP when `--tcp` is given.
//!
//! **Replication.** `--repl-listen <addr>` turns the node into a
//! replicating primary: it streams its WAL frames to every replica that
//! dials in, serving a checkpoint bootstrap to empty joiners.
//! `--replicate-to <addr>` additionally dials out and pushes the feed to
//! a listening replica. `--replicate-from <addr>` starts the node as a
//! read-only replica tailing that primary (reconnect + resync forever);
//! the `promote` protocol verb turns it into a writable primary after a
//! primary loss. A replica cannot simultaneously be a primary, so
//! `--replicate-from` is exclusive with the other two flags.
//!
//! **Shutdown.** SIGTERM (and the `shutdown` protocol verb) drains the
//! node gracefully: admission freezes, in-flight batches resolve, the
//! buffered WAL tail is flushed, and a final checkpoint is written
//! before the process exits — a clean exit never loses an acknowledged
//! ingest, whatever `--wal-flush-every` still had buffered.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use taser_core::trainer::{Backbone, Trainer, TrainerConfig, Variant};
use taser_graph::events::EventLog;
use taser_graph::synth::SynthConfig;
use taser_models::ModelArtifact;
use taser_serve::{protocol, BatchPolicy, IndexBackend, ServeConfig, ServeEngine};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Returns `default` when the flag is absent; a present-but-unparsable
/// value is an operator error and aborts loudly instead of silently
/// reverting to the default.
fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match arg_value(args, key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value {v:?} for {key}");
            std::process::exit(2);
        }),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  taser-serve train --out <path> [--events-out <path>] \
         [--backbone graphmixer|tgat] [--scale f] [--epochs n] [--seed n]\n  \
         taser-serve run --artifact <path> [--events <path>] [--tcp addr] \
         [--workers n] [--max-batch n] [--max-wait-ms f] [--slo-us n] \
         [--queue-cap n] [--lanes n] [--publish-every n] \
         [--cache-ratio f] [--index-backend rebuild|incremental] \
         [--trace-out path] [--no-health] [--slo-target f] \
         [--wal-dir dir] [--checkpoint-every n] [--wal-flush-every n] \
         [--repl-listen addr] [--replicate-to addr] [--replicate-from addr]\n\n\
         batch close: a batch is scored as soon as --max-batch queries wait or no queued \
         query's submitter can still add to it. Protocol sessions block on each query, so \
         theirs never wait on a timer; --max-wait-ms applies only while a streaming \
         submitter (embedded ServeEngine::submit) has tickets queued."
    );
    std::process::exit(2);
}

/// Set by the SIGTERM handler; a watcher thread turns it into a graceful
/// engine drain. The handler itself only stores a flag — everything else
/// (locks, I/O) is async-signal-unsafe.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGTERM: i32 = 15;

extern "C" fn note_term(_sig: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the SIGTERM handler and a watcher thread that, on the first
/// SIGTERM, runs [`ServeEngine::shutdown`] (seal, drain in-flight
/// batches, flush the buffered WAL tail, final checkpoint) and exits.
fn install_sigterm_drain(engine: &Arc<ServeEngine>) {
    unsafe { signal(SIGTERM, note_term as *const () as usize) };
    let engine = engine.clone();
    std::thread::spawn(move || loop {
        if TERM_REQUESTED.load(Ordering::SeqCst) {
            eprintln!("SIGTERM: draining (seal -> drain -> flush WAL tail -> checkpoint)");
            match engine.shutdown() {
                Ok(()) => {
                    eprintln!("drained cleanly");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("shutdown persist error: {e}");
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => train(&args),
        Some("run") => run(&args),
        _ => usage(),
    }
}

fn train(args: &[String]) {
    let Some(out) = arg_value(args, "--out") else {
        usage()
    };
    let backbone = match arg_value(args, "--backbone").as_deref() {
        None | Some("graphmixer") => Backbone::GraphMixer,
        Some("tgat") => Backbone::Tgat,
        Some(other) => {
            eprintln!("unknown backbone {other:?}");
            std::process::exit(2);
        }
    };
    let scale = parsed(args, "--scale", 0.01);
    let epochs = parsed(args, "--epochs", 1usize);
    let seed = parsed(args, "--seed", 42u64);

    let ds = SynthConfig::wikipedia()
        .feat_dims(0, 8)
        .scale(scale)
        .seed(seed)
        .build();
    let cfg = TrainerConfig {
        backbone,
        variant: Variant::Baseline,
        epochs,
        batch_size: 128,
        hidden: 16,
        time_dim: 8,
        n_neighbors: 5,
        eval_events: Some(50),
        eval_chunk: 25,
        eval_negatives: 9,
        seed,
        ..TrainerConfig::default()
    };
    eprintln!(
        "training {} on {} ({} events, {} epochs)...",
        backbone.name(),
        ds.name,
        ds.num_events(),
        epochs
    );
    let mut trainer = Trainer::new(cfg, &ds);
    for epoch in 0..epochs {
        let r = trainer.train_epoch(&ds, epoch);
        eprintln!("epoch {epoch}: loss {:.4}", r.loss);
    }
    let artifact = trainer.export_artifact(&ds);
    artifact.save_file(&out).expect("write artifact");
    eprintln!("artifact -> {out}");
    if let Some(events_out) = arg_value(args, "--events-out") {
        use std::io::Write;
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(&events_out).expect("create events"));
        for e in ds.log.events() {
            writeln!(f, "{} {} {}", e.src, e.dst, e.t).expect("write events");
        }
        f.flush().expect("flush events");
        eprintln!("events -> {events_out}");
    }
}

fn load_events(path: &str) -> EventLog {
    let text = std::fs::read_to_string(path).expect("read events file");
    let mut raw = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let die = |what: &str| -> ! {
            eprintln!("events file line {}: bad {what}: {line:?}", lineno + 1);
            std::process::exit(2);
        };
        let mut it = line.split_whitespace();
        // node ids parse as integers — a fractional or negative id is
        // corrupt input, not something to round into a different node
        let src: u32 = it
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die("src"));
        let dst: u32 = it
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die("dst"));
        let t: f64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die("t"));
        if it.next().is_some() {
            die("triple (trailing tokens)");
        }
        raw.push((src, dst, t));
    }
    EventLog::from_unsorted(raw)
}

fn run(args: &[String]) {
    let Some(path) = arg_value(args, "--artifact") else {
        usage()
    };
    let artifact = ModelArtifact::load_file(&path).expect("load artifact");
    let seed_log = match arg_value(args, "--events") {
        Some(p) => load_events(&p),
        None => EventLog::default(),
    };
    let index_backend = match arg_value(args, "--index-backend") {
        None => IndexBackend::default(),
        Some(v) => IndexBackend::parse(&v).unwrap_or_else(|| {
            eprintln!("bad value {v:?} for --index-backend (rebuild|incremental)");
            std::process::exit(2);
        }),
    };
    let cfg = ServeConfig {
        workers: parsed(args, "--workers", 2usize).max(1),
        batch: BatchPolicy {
            max_batch: parsed(args, "--max-batch", 64usize).max(1),
            max_wait: Duration::from_secs_f64(parsed(args, "--max-wait-ms", 2.0f64).max(0.0) / 1e3),
        },
        slo: Duration::from_micros(parsed(args, "--slo-us", 5_000_000u64).max(1)),
        queue_cap: parsed(args, "--queue-cap", 4096usize).max(1),
        lanes: parsed(args, "--lanes", 2usize).max(1),
        publish_every: parsed(args, "--publish-every", 256usize),
        cache_ratio: parsed(args, "--cache-ratio", 0.2f64),
        index_backend,
        health: taser_serve::HealthConfig {
            enabled: !args.iter().any(|a| a == "--no-health"),
            slo_target: parsed(args, "--slo-target", 0.99f64).clamp(0.0, 0.9999),
            ..taser_serve::HealthConfig::default()
        },
        ..ServeConfig::default()
    };
    eprintln!(
        "serving {} ({} seed events, {} workers, batch<= {} / {:?}, {} index)",
        artifact.spec.backbone.name(),
        seed_log.len(),
        cfg.workers,
        cfg.batch.max_batch,
        cfg.batch.max_wait,
        cfg.index_backend.name(),
    );
    let trace_out = arg_value(args, "--trace-out");
    if trace_out.is_some() {
        // before engine boot so the workers' first batches are captured
        taser_obs::set_tracing(true);
    }
    let engine = match arg_value(args, "--wal-dir") {
        Some(dir) => {
            let durability = taser_serve::DurabilityConfig {
                dir: dir.clone().into(),
                checkpoint_every: parsed(args, "--checkpoint-every", 10_000u64),
                wal_flush_every: parsed(args, "--wal-flush-every", 64usize).max(1),
            };
            let (engine, report) =
                ServeEngine::new_durable(artifact, seed_log, cfg, durability).expect("boot engine");
            if report.recovered {
                eprintln!(
                    "recovered {} events from {dir} (checkpoint {}, wal replayed {}, \
                     deduped {}{}) in {:?}",
                    report.events_total,
                    report.checkpoint_events,
                    report.wal_replayed,
                    report.wal_deduped,
                    if report.wal_truncated {
                        ", torn tail truncated"
                    } else {
                        ""
                    },
                    report.elapsed,
                );
            } else {
                eprintln!(
                    "durable ingest -> {dir} (cold start, {} seed events checkpointed)",
                    report.events_total
                );
            }
            engine
        }
        None => ServeEngine::new(artifact, seed_log, cfg).expect("boot engine"),
    };
    let admission = engine.admission_policy();
    eprintln!(
        "admission: slo {:?} (margin {:?}), {} lanes x {} cap",
        admission.slo, admission.slo_margin, admission.lanes, admission.queue_cap,
    );
    // Asserted by the CI serve-smoke job: serving must select the
    // zero-allocation packed-weight forward unless TASER_SCORE_PATH=tape.
    eprintln!("scoring path: {}", engine.pipeline().score_path().name());

    let engine = Arc::new(engine);
    install_sigterm_drain(&engine);

    // replication topology: primary flags arm the hub, the replica flag
    // tails a primary; the roles are mutually exclusive on one node
    let repl_listen = arg_value(args, "--repl-listen");
    let repl_to = arg_value(args, "--replicate-to");
    let repl_from = arg_value(args, "--replicate-from");
    if repl_from.is_some() && (repl_listen.is_some() || repl_to.is_some()) {
        eprintln!("--replicate-from is exclusive with --repl-listen / --replicate-to");
        std::process::exit(2);
    }
    if repl_listen.is_some() || repl_to.is_some() {
        engine.enable_replication().expect("enable replication");
    }
    // guards keep the feed threads and the accept loop alive for the
    // lifetime of the serving session
    let _repl_listener = repl_listen.map(|bind| {
        let l = taser_serve::ReplListener::spawn(&engine, &bind).expect("bind repl listener");
        eprintln!("replication listener on {}", l.addr());
        l
    });
    let mut _repl_threads: Vec<taser_serve::ReplThread> = Vec::new();
    if let Some(addr) = repl_to {
        _repl_threads.push(taser_serve::start_push(&engine, addr.clone()).expect("start push"));
        eprintln!("pushing WAL feed to {addr}");
    }
    if let Some(addr) = repl_from {
        _repl_threads
            .push(taser_serve::start_replica(&engine, addr.clone()).expect("start replica"));
        eprintln!("replica: tailing {addr} (read-only until `promote`)");
    }

    match arg_value(args, "--tcp") {
        Some(addr) => {
            if trace_out.is_some() {
                eprintln!(
                    "note: --trace-out writes its file at stdin-session end only; \
                     TCP clients should issue the `trace` verb to dump on demand"
                );
            }
            let listener = std::net::TcpListener::bind(&addr).expect("bind");
            eprintln!("listening on {addr}");
            protocol::serve_tcp(engine.clone(), listener).expect("serve");
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            protocol::run_session(&engine, stdin.lock(), stdout.lock(), |_| Ok(()))
                .expect("session");
            if let Some(path) = trace_out {
                std::fs::write(&path, taser_obs::chrome_trace_json()).expect("write trace");
                eprintln!("trace -> {path}");
            }
        }
    }
}

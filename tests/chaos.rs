//! Chaos acceptance tests for the fault-tolerant serving engine: inject
//! worker panics under open-loop load and assert every ticket resolves
//! (scored or typed-shed — never a hung or panicked waiter), the
//! supervisor respawns the dead workers, the accounting identity closes
//! exactly, and health clears once the crash-loop stops. Then simulate a
//! process crash and assert checkpoint + WAL replay reproduces the
//! pre-crash graph/index generation bit-identically.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use taser_core::trainer::{Backbone, Trainer, TrainerConfig, Variant};
use taser_graph::events::EventLog;
use taser_graph::synth::SynthConfig;
use taser_models::ModelArtifact;
use taser_serve::obs::AlertLevel;
use taser_serve::{
    start_replica, BatchPolicy, DurabilityConfig, FaultPlan, HealthConfig, IndexBackend,
    ReplListener, ServeConfig, ServeEngine,
};

/// Trains a tiny GraphMixer and returns (artifact, seed log, last event t).
fn trained_artifact() -> (ModelArtifact, EventLog, f64) {
    let ds = SynthConfig {
        num_src: 40,
        num_dst: 40,
        num_events: 800,
        edge_feat_dim: 8,
        node_feat_dim: 0,
        ..SynthConfig::wikipedia()
    }
    .scale(1.0)
    .seed(11)
    .build();
    let cfg = TrainerConfig {
        backbone: Backbone::GraphMixer,
        variant: Variant::Baseline,
        epochs: 1,
        batch_size: 128,
        hidden: 16,
        time_dim: 8,
        n_neighbors: 5,
        seed: 11,
        ..TrainerConfig::default()
    };
    let mut trainer = Trainer::new(cfg, &ds);
    trainer.train_epoch(&ds, 0);
    let t_end = ds.log.events().last().unwrap().t;
    (trainer.export_artifact(&ds), ds.log.clone(), t_end)
}

/// Fresh scratch dir per use (cargo's per-target tmpdir; the sandbox has
/// no writable system tmp).
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(format!("chaos-{name}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Copies the durable state dir file-by-file — the crash image a restart
/// would see.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

/// Under open-loop load with `max_panics` injected worker panics: every
/// ticket resolves (scored or typed-shed, zero abandoned), the supervisor
/// restarts exactly the panicked workers, the admission identity closes
/// exactly, and the health watchdog's `worker_restart` gate clears once
/// the crash-loop stops.
#[test]
fn injected_worker_panics_resolve_every_ticket_and_the_engine_heals() {
    const PANICS: u64 = 3;
    let (artifact, log, t_end) = trained_artifact();
    let engine = ServeEngine::new(
        artifact,
        log,
        ServeConfig {
            workers: 2,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            },
            slo: Duration::from_secs(30),
            queue_cap: 1024,
            lanes: 2,
            publish_every: 0,
            faults: FaultPlan {
                panic_every: 5,
                max_panics: PANICS,
                ..FaultPlan::default()
            },
            health: HealthConfig {
                enabled: true,
                sample_every: Duration::from_millis(20),
                eval_every: Duration::from_millis(50),
                fast_window: Duration::from_millis(500),
                hold_up: 1,
                hold_down: 1,
                ..HealthConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();

    const LOAD: u32 = 300;
    let mut tickets = Vec::new();
    let mut shed_at_door = 0u64;
    for i in 0..LOAD {
        let lane = (i % 2) as usize;
        match engine.submit_lane(i % 40, 40 + (i % 40), t_end + 1.0 + i as f64, lane) {
            Ok(t) => tickets.push(t),
            Err(_) => shed_at_door += 1,
        }
    }

    let (mut scored, mut worker_failed, mut deadline) = (0u64, 0u64, 0u64);
    for t in &tickets {
        // the whole point: a crashed worker's queries resolve, promptly
        let outcome = t
            .wait_timeout(Duration::from_secs(30))
            .expect("no ticket may hang past its worker's death");
        match outcome {
            Ok(r) => {
                assert!(r.prob.is_finite());
                scored += 1;
            }
            Err(taser_serve::Overloaded::WorkerFailed { .. }) => worker_failed += 1,
            Err(taser_serve::Overloaded::DeadlineExceeded { .. }) => deadline += 1,
            Err(other) => panic!("unexpected shed after admission: {other}"),
        }
    }
    assert_eq!(scored + worker_failed + deadline, tickets.len() as u64);
    assert!(
        worker_failed >= PANICS,
        "each injected panic abandons at least its own batch (got {worker_failed})"
    );

    // the supervisor respawns every panicked worker
    let deadline_at = Instant::now() + Duration::from_secs(10);
    while engine.worker_restarts() < PANICS {
        assert!(Instant::now() < deadline_at, "supervisor never respawned");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(engine.worker_restarts(), PANICS);

    // quiescent accounting identity, exact — nothing lost, nothing double
    let st = engine.stats();
    assert_eq!(st.in_queue, 0);
    assert_eq!(st.in_flight, 0);
    assert_eq!(
        st.admitted,
        st.queries + st.shed_deadline + st.shed_worker_failed
    );
    assert_eq!(st.shed_worker_failed, worker_failed);
    assert_eq!(st.shed_full, shed_at_door);
    assert_eq!(st.admitted + st.shed_full, LOAD as u64);
    for lane in &st.lanes {
        assert_eq!(
            lane.admitted,
            lane.scored
                + lane.shed_deadline
                + lane.shed_worker_failed
                + lane.queued
                + lane.in_flight
        );
    }
    assert_eq!(
        engine.streaming_queued(),
        0,
        "tickets failed by a panicking worker no longer hold the batch timer"
    );

    // and the engine still serves: fresh queries score on the restarted pool
    let r = engine
        .score_lane(1, 41, t_end + 2_000.0, 0)
        .expect("restarted workers must score");
    assert!(r.prob.is_finite());

    // health saw the crash-loop and clears after it stops
    let deadline_at = Instant::now() + Duration::from_secs(30);
    loop {
        if engine.health().level() == AlertLevel::Ok {
            break;
        }
        assert!(
            Instant::now() < deadline_at,
            "health never cleared after the crash-loop stopped"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Kill-and-restart equivalence: a durable engine ingests past several
/// checkpoint boundaries, "crashes" (its state dir is copied as-is), and
/// a fresh engine booted from the crash image — on a *different* index
/// backend — reproduces the pre-crash graph bit-identically via
/// checkpoint + WAL-tail replay. A torn WAL tail in the image is
/// truncated, not propagated.
#[test]
fn crash_restart_recovers_the_pre_crash_generation_bit_identically() {
    let (artifact, log, t_end) = trained_artifact();
    // ModelArtifact is deliberately not Clone; round-trip it through its
    // file format to boot several engines from the same weights
    let model_path = scratch("model").join("model.taser");
    artifact.save_file(&model_path).unwrap();
    let reload = || ModelArtifact::load_file(&model_path).unwrap();
    let quiet = |backend: IndexBackend| ServeConfig {
        workers: 1,
        publish_every: 0,
        index_backend: backend,
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        ..ServeConfig::default()
    };
    let dur = |dir: &Path| DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 64,
        wal_flush_every: 4,
    };

    let dir_a = scratch("crash-a");
    let (engine, report) =
        ServeEngine::new_durable(artifact, log, quiet(IndexBackend::Rebuild), dur(&dir_a)).unwrap();
    assert!(!report.recovered, "cold start on an empty dir");
    // SynthConfig::scale floors num_events at 2000 — that's the seed size
    const SEED_EVENTS: u64 = 2_000;
    assert_eq!(report.events_total as u64, SEED_EVENTS);

    const INGESTS: u32 = 150;
    for i in 0..INGESTS {
        engine
            .ingest(i % 40, 40 + (i % 40), t_end + 1.0 + i as f64)
            .unwrap();
    }
    engine.wal_sync().unwrap();
    engine.publish();
    let digest = engine.snapshot_digest();
    let events = engine.stats().graph_events;
    assert_eq!(events, SEED_EVENTS + INGESTS as u64);

    // crash: copy the state dir out from under the live engine (it has
    // synced; a real crash after fsync sees exactly these bytes), only
    // then let the engine shut down cleanly
    let dir_b = scratch("crash-b");
    copy_dir(&dir_a, &dir_b);
    drop(engine);

    let (restarted, report) = ServeEngine::new_durable(
        reload(),
        EventLog::default(), // seed ignored: the crash image is the seed
        quiet(IndexBackend::Incremental),
        dur(&dir_b),
    )
    .unwrap();
    assert!(report.recovered);
    // cold start checkpoints the seed, then ingests 64 and 128 cross the
    // cadence: the checkpoint holds seed+128, the WAL tail the last 22
    assert_eq!(report.checkpoint_events as u64, SEED_EVENTS + 128);
    assert_eq!(report.wal_replayed, 22);
    assert!(!report.wal_truncated);
    assert_eq!(report.events_total as u64, SEED_EVENTS + INGESTS as u64);
    restarted.publish();
    assert_eq!(
        restarted.snapshot_digest(),
        digest,
        "recovery must be bit-identical to the pre-crash generation"
    );
    assert_eq!(restarted.stats().graph_events, events);
    // and the recovered engine ingests + scores like nothing happened
    restarted
        .ingest(0, 41, t_end + 5_000.0)
        .expect("recovered engine must keep ingesting");
    drop(restarted);

    // a torn tail in the crash image (half-written final record) is
    // truncated on recovery, never propagated into the graph
    let dir_c = scratch("crash-c");
    copy_dir(&dir_a, &dir_c);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir_c.join("events.wal"))
            .unwrap();
        f.write_all(&[0xAB; 13]).unwrap();
    }
    let (torn, report) = ServeEngine::new_durable(
        reload(),
        EventLog::default(),
        quiet(IndexBackend::Rebuild),
        dur(&dir_c),
    )
    .unwrap();
    assert!(report.recovered);
    assert!(report.wal_truncated, "torn tail must be detected");
    assert_eq!(report.events_total as u64, SEED_EVENTS + INGESTS as u64);
    torn.publish();
    assert_eq!(torn.snapshot_digest(), digest);
}

/// Replication accounting closes exactly: after a seeded primary ships
/// its history (snapshot bootstrap) and a burst of live ingests to a
/// replica, every event the replica applied fresh is either one seed
/// event from the bootstrap image or exactly one primary WAL append —
/// `taser_repl_applied_total` moves by precisely that sum, nothing is
/// double-counted (dedup) and nothing is lost (digest identity).
#[test]
fn replica_accounting_reconciles_exactly_against_the_primary_wal() {
    const SEED: u64 = 2_000; // SynthConfig floors num_events at 2 000
    const INGESTS: u64 = 300;
    let (artifact, seed_log, t_end) = trained_artifact();
    let applied_counter = taser_serve::obs::global().counter("taser_repl_applied_total");
    let applied_before = applied_counter.get();

    let quiet = || ServeConfig {
        workers: 1,
        batch: BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        },
        publish_every: 0,
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        ..ServeConfig::default()
    };
    let dur = |dir: &Path| DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 0,
        wal_flush_every: 64,
    };

    let dir_p = scratch("recon-primary");
    let (primary, report) =
        ServeEngine::new_durable(artifact, seed_log, quiet(), dur(&dir_p)).unwrap();
    assert!(!report.recovered);
    let primary = std::sync::Arc::new(primary);
    primary.enable_replication().unwrap();
    let listener = ReplListener::spawn(&primary, "127.0.0.1:0").unwrap();

    // ModelArtifact is not Clone; training is seeded, so a second run
    // yields the identical artifact for the replica
    let (artifact_r, _, _) = trained_artifact();
    let dir_r = scratch("recon-replica");
    let (replica, _) =
        ServeEngine::new_durable(artifact_r, EventLog::default(), quiet(), dur(&dir_r)).unwrap();
    let replica = std::sync::Arc::new(replica);
    let _feed = start_replica(&replica, listener.addr().to_string()).unwrap();

    for i in 0..INGESTS {
        let src = (i % 40) as u32;
        let dst = 40 + ((i * 7) % 40) as u32;
        primary
            .ingest(src, dst, t_end + i as f64 + 1.0)
            .expect("ingest");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while (replica.repl_next_eid() as u64) < SEED + INGESTS {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }

    // the identity, exact on both sides of the wire
    assert_eq!(
        primary.wal_appended(),
        INGESTS,
        "seed is checkpointed, not WAL'd"
    );
    assert_eq!(
        replica.repl_applied(),
        SEED + primary.wal_appended(),
        "replica applied = bootstrap image + primary WAL appends, exactly"
    );
    assert_eq!(
        applied_counter.get() - applied_before,
        SEED + INGESTS,
        "taser_repl_applied_total moved by exactly the reconciled sum"
    );
    let st = replica.repl_status();
    assert_eq!(st.duplicates, 0, "a clean link dedupes nothing");
    assert_eq!(st.snapshot_loads, 1);

    primary.publish();
    replica.publish();
    assert_eq!(replica.snapshot_digest(), primary.snapshot_digest());
}

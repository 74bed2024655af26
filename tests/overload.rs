//! Overload acceptance tests for the admission-controlled serving front
//! end: drive a live `ServeEngine` past capacity and assert the responses
//! are *typed* sheds — never blocking, never unbounded queueing — and that
//! the accounting (admitted + shed = submitted) closes exactly.
//!
//! Determinism note: these tests never race a timer against the scoring
//! rate. Overload is manufactured structurally — one worker, a batch that
//! cannot fill (`max_batch` larger than the workload, `max_wait` measured
//! in minutes) so the only drain trigger is the deadline-margin close,
//! which is minutes away while the submissions land. Queue contents during
//! the submission burst are therefore exact, not load-dependent.

use std::time::{Duration, Instant};
use taser_core::trainer::{Backbone, Trainer, TrainerConfig, Variant};
use taser_graph::synth::SynthConfig;
use taser_models::ModelArtifact;
use taser_serve::{BatchPolicy, Overloaded, ServeConfig, ServeEngine};

/// Trains a tiny GraphMixer and returns (artifact, seed log, last event t).
fn trained_artifact() -> (ModelArtifact, taser_graph::events::EventLog, f64) {
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

/// A full lane sheds at the door with `Overloaded::QueueFull` carrying the
/// lane id, the admitted prefix still scores, and the admission counters
/// reconcile exactly against what was submitted.
#[test]
fn past_capacity_sheds_typed_and_accounting_closes() {
    let (artifact, log, t_end) = trained_artifact();
    let engine = ServeEngine::new(
        artifact,
        log,
        ServeConfig {
            workers: 1,
            // the batch can only close via the deadline margin (~100ms
            // after the first submit), so during the burst the queue state
            // is exact: 4 waiting, everything else shed at the door
            batch: BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(600),
            },
            slo: Duration::from_secs(5),
            slo_margin: Some(Duration::from_millis(4_900)),
            queue_cap: 4,
            lanes: 2,
            publish_every: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    const BURST: usize = 32;
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for i in 0..BURST as u32 {
        match engine.submit(i % 40, (i * 3 + 1) % 40, t_end + 1.0 + f64::from(i)) {
            Ok(ticket) => admitted.push(ticket),
            Err(over) => {
                assert!(
                    matches!(over, Overloaded::QueueFull { lane: 0 }),
                    "full lane must shed typed QueueFull on lane 0, got {over:?}"
                );
                shed += 1;
            }
        }
    }
    assert_eq!(admitted.len(), 4, "exactly queue_cap=4 queries fit lane 0");
    assert_eq!(shed, BURST - 4);

    // lane 1 has its own bounded queue: lane-0 overflow must not consume it
    let hi = engine
        .submit_lane(1, 2, t_end + 500.0, 1)
        .expect("lane 1 is empty and must admit");

    for ticket in admitted {
        let r = ticket.wait().expect("admitted within a 5s SLO must score");
        assert!(r.prob > 0.0 && r.prob < 1.0);
    }
    let r = hi.wait().expect("lane 1 ticket must score");
    assert!(r.prob > 0.0 && r.prob < 1.0);

    let stats = engine.stats();
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.shed_full, (BURST - 4) as u64);
    assert_eq!(stats.shed_deadline, 0);
    assert_eq!(
        stats.admitted + stats.shed(),
        (BURST + 1) as u64,
        "every submission must be admitted or shed — none silently dropped"
    );
    assert_eq!(stats.queries, stats.admitted, "all admitted queries scored");
    assert_eq!(stats.slo_met, 5);
    assert_eq!(stats.lanes.len(), 2);
    assert_eq!(stats.lanes[0].shed_full, (BURST - 4) as u64);
    assert_eq!(stats.lanes[1].admitted, 1);
    for lane in &stats.lanes {
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
        "drained submit() tickets no longer hold the batch timer"
    );
}

/// A caller that blocks on its ticket (`score`) has nothing more to add to
/// the batch, so neither `max_wait` nor the SLO margin — both the better
/// part of an hour away here — may hold its query.
#[test]
fn blocking_callers_are_not_held_for_the_batch_timer() {
    let (artifact, log, t_end) = trained_artifact();
    let engine = ServeEngine::new(
        artifact,
        log,
        ServeConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(3600),
            },
            slo: Duration::from_secs(3600),
            publish_every: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    for i in 0..3u32 {
        let r = engine
            .score_lane(i, i * 2 + 1, t_end + 1.0 + f64::from(i), (i % 2) as usize)
            .expect("scored");
        assert!(r.prob > 0.0 && r.prob < 1.0);
    }
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "score() sat out a batch timer ({:?})",
        t0.elapsed()
    );
    assert_eq!(engine.stats().batches, 3, "one caller, one query per batch");
}

/// The deadline margin closes a batch that would otherwise linger for the
/// full `max_wait`: with a 10-minute window and a 5s SLO the queries must
/// come back in ~100ms, not minutes.
#[test]
fn deadline_margin_closes_batches_long_before_max_wait() {
    let (artifact, log, t_end) = trained_artifact();
    let engine = ServeEngine::new(
        artifact,
        log,
        ServeConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(600),
            },
            slo: Duration::from_secs(5),
            slo_margin: Some(Duration::from_millis(4_900)),
            queue_cap: 64,
            lanes: 2,
            publish_every: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let tickets: Vec<_> = (0..3u32)
        .map(|i| {
            engine
                .submit(i, i * 2 + 1, t_end + 1.0 + f64::from(i))
                .expect("queue far from cap")
        })
        .collect();
    for t in tickets {
        t.wait().expect("must score within the SLO");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "deadline close must preempt the 600s max_wait (took {elapsed:?})"
    );
    let stats = engine.stats();
    assert_eq!((stats.queries, stats.slo_met), (3, 3));
    assert!(stats.batches >= 1);
}

/// An unmeetable SLO never blocks and never reports success: every ticket
/// resolves (typed deadline shed, or scored-but-late), and `slo_met` stays
/// zero — the counter a load balancer would alarm on.
#[test]
fn impossible_slo_yields_no_goodput_but_every_ticket_resolves() {
    let (artifact, log, t_end) = trained_artifact();
    let engine = ServeEngine::new(
        artifact,
        log,
        ServeConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
            },
            slo: Duration::from_micros(1),
            slo_margin: Some(Duration::ZERO),
            queue_cap: 64,
            lanes: 1,
            publish_every: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    const N: u32 = 16;
    let tickets: Vec<_> = (0..N)
        .map(|i| {
            engine
                .submit(i % 40, (i + 1) % 40, t_end + 1.0 + f64::from(i))
                .expect("cap 64 admits the trickle")
        })
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            Err(Overloaded::DeadlineExceeded { lane }) => assert_eq!(lane, 0),
            Err(other) => panic!("admitted ticket cannot be QueueFull: {other:?}"),
            Ok(r) => assert!(r.prob > 0.0 && r.prob < 1.0, "late score still valid"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.admitted, u64::from(N));
    assert_eq!(stats.slo_met, 0, "a 1us budget is unmeetable by design");
    assert_eq!(
        stats.shed_deadline + stats.slo_missed,
        u64::from(N),
        "every admitted query is either shed expired or scored late"
    );
    assert_eq!(
        engine.streaming_queued(),
        0,
        "expiry-shed tickets no longer hold the batch timer"
    );
}

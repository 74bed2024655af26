//! Counting-allocator proof of the fast path's zero-allocation steady
//! state (PR 4 acceptance criterion).
//!
//! A global allocator wrapper counts every `alloc`/`realloc`; after a few
//! warmup batches (arena growth, buffer sizing, hash-map capacity), scoring
//! further batches through `ScorePipeline::score_batch_into` must perform
//! **zero** heap allocations — across both backbones and with the
//! edge-feature cache tier enabled.
//!
//! This file holds exactly one `#[test]` so no concurrent test pollutes the
//! allocation counter.
//!
//! PR 7 extends the contract to observability: with tracing **disabled**
//! (the default) stage timing adds only `Instant` reads into fixed arrays,
//! and with tracing **enabled** span recording writes into a pre-registered
//! fixed-capacity ring — so both phases below assert zero allocations.
//!
//! PR 8 extends it to the telemetry consumption layer: the final phase
//! scores with a live `ServeEngine` running its health watchdog and
//! stage-occupancy sampler at an aggressive cadence. The counter is
//! process-global, so the watchdog thread's window snapshots, burn-gate
//! evaluations, and occupancy sweeps are inside the assertion — they must
//! write only into state preallocated at engine construction.

//!
//! PR 12 extends it to batch formation: draining the admission queue into
//! a worker's recycled batch buffer — close-reason counter, lane gauges
//! and ticket fulfillment included — allocates nothing once the buffer has
//! reached batch size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run a measured window up to three times and return the cleanest count.
///
/// The counter is process-global on purpose, so it also sees the test
/// harness's own main thread — which lazily allocates its completed-test
/// channel context (`std::sync::mpmc::context::Context`, one `Arc` init)
/// the first time it parks, at a nondeterministic instant after this test
/// thread starts. A genuine steady-state allocation in the code under test
/// repeats in every window; that one-off harness init can land in at most
/// one, so passing any clean window keeps the zero-alloc contract exact
/// while making the assertion immune to the race.
fn cleanest_window(mut window: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        window();
        let after = ALLOCS.load(Ordering::Relaxed);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn steady_state_scoring_allocates_nothing() {
    use taser_graph::events::EventLog;
    use taser_graph::feats::FeatureMatrix;
    use taser_graph::tcsr::TCsr;
    use taser_models::artifact::{ArtifactBackbone, ArtifactPolicy, ModelArtifact, ModelSpec};
    use taser_serve::{LinkQuery, ScorePipeline, ScoreScratch, ServeFeatureCache};

    let num_nodes = 16usize;
    let log = EventLog::from_unsorted(
        (0..120u32)
            .map(|i| (i % 8, 8 + (i * 3) % 8, 1.0 + i as f64 * 0.25))
            .collect(),
    );
    let csr = TCsr::build(&log, num_nodes);

    for backbone in [ArtifactBackbone::GraphMixer, ArtifactBackbone::Tgat] {
        let spec = ModelSpec {
            backbone,
            in_dim: 4,
            edge_dim: 3,
            hidden: 16,
            time_dim: 8,
            heads: 2,
            n_neighbors: 5,
            dropout: 0.0,
            // MostRecent and the stochastic policies share the same
            // allocation-free per-target launch; use the policy each
            // backbone defaults to in serving.
            policy: match backbone {
                ArtifactBackbone::GraphMixer => ArtifactPolicy::MostRecent,
                ArtifactBackbone::Tgat => ArtifactPolicy::Uniform,
            },
        };
        let node_feats =
            FeatureMatrix::from_vec((0..num_nodes * 4).map(|x| x as f32 * 0.01).collect(), 4);
        let edge_feats =
            FeatureMatrix::from_vec((0..log.len() * 3).map(|x| x as f32 * 0.02).collect(), 3);
        let artifact = ModelArtifact::init(spec, Some(node_feats), Some(edge_feats), 5);
        let (pipeline, edge_feats) = ScorePipeline::new(artifact, None).unwrap();
        // cache tier ON (its per-access bookkeeping is counters only);
        // request-count maintenance OFF — an epoch's top-k pass is a
        // deliberate, occasional allocation outside the steady state.
        let cache = ServeFeatureCache::new(edge_feats, 0.4, 0.7, 0, 1);

        let queries: Vec<LinkQuery> = (0..24)
            .map(|i| LinkQuery {
                src: i % 8,
                dst: 8 + (i % 8),
                t: 40.0 + (i % 6) as f64,
            })
            .collect();
        let mut scratch = ScoreScratch::new();
        let mut probs = Vec::new();

        // warmup: arena growth, buffer/bitmap sizing, hash-map capacity
        for _ in 0..5 {
            pipeline.score_batch_into(&csr, 3, &queries, &cache, &mut scratch, &mut probs);
        }
        assert_eq!(probs.len(), queries.len());

        let allocs = cleanest_window(|| {
            for _ in 0..20 {
                pipeline.score_batch_into(&csr, 3, &queries, &cache, &mut scratch, &mut probs);
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: steady-state scoring allocated {} times over 20 batches",
            backbone.name(),
            allocs
        );
        assert!(probs.iter().all(|&p| p > 0.0 && p < 1.0));

        // tracing ON: span recording must also be allocation-free once the
        // thread's ring exists. The ring registration is the one deliberate
        // allocation, paid here in warmup.
        taser_obs::set_tracing(true);
        taser_obs::warm_thread_ring();
        for _ in 0..5 {
            pipeline.score_batch_into(&csr, 3, &queries, &cache, &mut scratch, &mut probs);
        }
        let allocs = cleanest_window(|| {
            for _ in 0..20 {
                pipeline.score_batch_into(&csr, 3, &queries, &cache, &mut scratch, &mut probs);
            }
        });
        taser_obs::set_tracing(false);
        assert_eq!(
            allocs,
            0,
            "{}: tracing-enabled scoring allocated {} times over 20 batches",
            backbone.name(),
            allocs
        );
    }

    // -- watchdog + sampler phase: a live engine's health thread sweeps
    //    occupancy every 1ms and evaluates windows/gates every 10ms while
    //    the main thread keeps scoring through the raw pipeline. The
    //    allocation counter covers every thread in the process, so this
    //    asserts the watchdog's steady state allocates nothing either. --
    {
        use taser_graph::events::EventLog;
        use taser_graph::feats::FeatureMatrix;
        use taser_graph::tcsr::TCsr;
        use taser_models::artifact::{ArtifactBackbone, ArtifactPolicy, ModelArtifact, ModelSpec};
        use taser_serve::{HealthConfig, ServeConfig, ServeEngine};

        let mk_artifact = || {
            let spec = ModelSpec {
                backbone: ArtifactBackbone::GraphMixer,
                in_dim: 4,
                edge_dim: 3,
                hidden: 16,
                time_dim: 8,
                heads: 2,
                n_neighbors: 5,
                dropout: 0.0,
                policy: ArtifactPolicy::MostRecent,
            };
            let node_feats =
                FeatureMatrix::from_vec((0..num_nodes * 4).map(|x| x as f32 * 0.01).collect(), 4);
            let edge_feats =
                FeatureMatrix::from_vec((0..log.len() * 3).map(|x| x as f32 * 0.02).collect(), 3);
            ModelArtifact::init(spec, Some(node_feats), Some(edge_feats), 5)
        };
        let (pipeline, edge_feats) = ScorePipeline::new(mk_artifact(), None).unwrap();
        let cache = ServeFeatureCache::new(edge_feats, 0.4, 0.7, 0, 1);
        let csr = TCsr::build(&log, num_nodes);
        let engine = ServeEngine::new(
            mk_artifact(),
            EventLog::from_unsorted(
                (0..120u32)
                    .map(|i| (i % 8, 8 + (i * 3) % 8, 1.0 + i as f64 * 0.25))
                    .collect(),
            ),
            ServeConfig {
                workers: 1,
                health: HealthConfig {
                    sample_every: std::time::Duration::from_millis(1),
                    eval_every: std::time::Duration::from_millis(10),
                    fast_window: std::time::Duration::from_millis(50),
                    slow_window: std::time::Duration::from_millis(200),
                    ..HealthConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let queries: Vec<LinkQuery> = (0..24)
            .map(|i| LinkQuery {
                src: i % 8,
                dst: 8 + (i % 8),
                t: 40.0 + (i % 6) as f64,
            })
            .collect();
        let mut scratch = ScoreScratch::new();
        let mut probs = Vec::new();
        for _ in 0..5 {
            pipeline.score_batch_into(&csr, 3, &queries, &cache, &mut scratch, &mut probs);
        }
        // let the watchdog finish its own warmup (rings are preallocated,
        // but the first evaluations must have happened so the measured
        // window is pure steady state)
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.health().evals() < 3 {
            assert!(std::time::Instant::now() < deadline, "watchdog never ran");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let evals_before = engine.health().evals();
        let allocs = cleanest_window(|| {
            for _ in 0..20 {
                pipeline.score_batch_into(&csr, 3, &queries, &cache, &mut scratch, &mut probs);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let evals_after = engine.health().evals();
        assert!(
            evals_after > evals_before,
            "watchdog must have evaluated inside the measured window"
        );
        assert_eq!(
            allocs,
            0,
            "watchdog/sampler steady state allocated {} times over {} evals",
            allocs,
            evals_after - evals_before
        );
        drop(engine);
    }

    // -- batch formation: the worker loop's `next_batch` into a recycled
    //    buffer, the per-batch close-reason counter bump, and fulfilling
    //    the drained tickets. Submission (one ticket `Arc` per query) is
    //    paid up front, outside the window. --
    {
        use taser_serve::{AdmissionPolicy, AdmissionQueue, BatchPolicy, ScoreResult};
        const BATCH: usize = 4;
        const BATCHES: usize = 20;
        let queue = AdmissionQueue::new(AdmissionPolicy {
            batch: BatchPolicy {
                max_batch: BATCH,
                max_wait: std::time::Duration::from_secs(3600),
            },
            ..AdmissionPolicy::default()
        });
        let query = LinkQuery {
            src: 0,
            dst: 8,
            t: 40.0,
        };
        // three possible windows plus the warmup batch that sizes the buffer
        let tickets: Vec<_> = (0..BATCH * (3 * BATCHES + 1))
            .map(|_| queue.submit_blocking(query, 0).expect("admitted"))
            .collect();
        let full =
            taser_obs::global().counter("taser_admission_batch_close_total{reason=\"full\"}");
        let mut batch = Vec::new();
        let mut drain = |batches: usize| {
            for _ in 0..batches {
                assert!(queue.next_batch(&mut batch));
                assert_eq!(batch.len(), BATCH);
                for p in batch.drain(..) {
                    let lane = p.lane;
                    p.fulfill(ScoreResult {
                        prob: 0.5,
                        generation: 0,
                    });
                    queue.mark_done(lane);
                }
            }
        };
        drain(1);
        let closes_before = full.get();
        let mut windows = 0u64;
        let allocs = cleanest_window(|| {
            windows += 1;
            drain(BATCHES);
        });
        assert_eq!(
            full.get() - closes_before,
            windows * BATCHES as u64,
            "one close-reason bump per drained batch"
        );
        assert_eq!(
            allocs, 0,
            "batch formation allocated {allocs} times over {BATCHES} batches"
        );
        drop(tickets);
    }
}

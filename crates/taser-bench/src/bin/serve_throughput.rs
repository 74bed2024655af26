//! Serving throughput/latency harness.
//!
//! Measures four ways of answering the same link-query workload with the
//! same trained model:
//!
//! 1. **single** — one query at a time through the scoring pipeline (the
//!    no-batching strawman a naive server would ship);
//! 2. **batched (tape)** — micro-batches through the autograd-tape forward
//!    (the forward implementation serving ran before the fast path landed;
//!    hop assembly is the shared rewritten path, so the ratio isolates the
//!    forward, not the assembly);
//! 3. **batched (fast)** — the same micro-batches through the
//!    zero-allocation packed-weight fast path (what the engine's workers
//!    execute);
//! 4. **engine** — closed-loop clients against a live [`ServeEngine`] while
//!    an ingest thread streams events, reporting p50/p99 end-to-end latency.
//!
//! Prints a summary table and writes a `BENCH_serve.json` row; see
//! `EXPERIMENTS.md` ("Serving harness"). The batched/single ratio is the
//! micro-batching amortization factor — the subsystem's reason to exist.
//!
//! ```sh
//! cargo run --release -p taser-bench --bin serve_throughput \
//!   [-- --scale 0.01 --queries 512 --batch 64 --clients 4 --out BENCH_serve.json \
//!       --no-health]
//! ```
//!
//! The engine run ships with the health watchdog and occupancy sampler on
//! (the default serving shape, and what the CI bench gate regresses
//! against); `--no-health` disables both, so an A/B pair of runs measures
//! their overhead — see EXPERIMENTS.md ("Watchdog overhead").

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taser_bench::{arg_flag, arg_value, scale_arg};
use taser_core::trainer::{Backbone, Trainer, TrainerConfig, Variant};
use taser_graph::dataset::TemporalDataset;
use taser_graph::synth::SynthConfig;
use taser_serve::{
    BatchPolicy, HealthConfig, LinkQuery, ScorePipeline, ScoreScratch, ServeConfig, ServeEngine,
    ServeFeatureCache,
};

/// Absent flag -> default; unparsable value -> loud abort, so BENCH rows
/// are never mislabeled by a typo silently reverting to defaults.
fn parsed<T: std::str::FromStr>(key: &str, default: T) -> T {
    match arg_value(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value {v:?} for {key}");
            std::process::exit(2);
        }),
    }
}

/// A recommendation-style workload: each arrival tick batches `users_per_tick`
/// users, each ranked against `cands_per_user` candidates drawn from a small
/// trending pool, all stamped with the tick's arrival time. This is the hot
/// query pattern the synthetic datasets model (Zipf-skewed item popularity)
/// and the one micro-batching exists for: hot (node, t) roots repeat within
/// a batch and are encoded once.
fn workload(ds: &TemporalDataset, queries: usize, tick: usize) -> Vec<LinkQuery> {
    let t_end = ds.log.events().last().expect("events").t;
    let n = ds.num_nodes as u32;
    let users_per_tick = 8u32;
    let cands_per_user = (tick as u32 / users_per_tick).max(1);
    let trending = 16u32; // per-tick candidate pool
    (0..queries as u32)
        .map(|i| {
            let tick_no = i / tick as u32;
            let in_tick = i % tick as u32;
            let user = in_tick / cands_per_user;
            let cand = in_tick % cands_per_user;
            LinkQuery {
                src: (tick_no * 31 + user * 3) % n,
                dst: (tick_no * 17 + (cand * 5) % trending + 1) % n,
                t: t_end + 1.0 + tick_no as f64,
            }
        })
        .collect()
}

fn main() {
    let scale = scale_arg();
    let queries = parsed("--queries", 512usize);
    let batch = parsed("--batch", 64usize);
    let clients = parsed("--clients", 4usize);
    let hidden = parsed("--hidden", 32usize);
    let n_neighbors = parsed("--n", 10usize);
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_serve.json".into());

    // -- train a small model and hand it over through the artifact format --
    let ds = SynthConfig::wikipedia()
        .feat_dims(0, 16)
        .scale(scale)
        .seed(7)
        .build();
    let cfg = TrainerConfig {
        backbone: Backbone::GraphMixer,
        variant: Variant::Baseline,
        epochs: 1,
        batch_size: 200,
        hidden,
        time_dim: 16,
        n_neighbors,
        seed: 7,
        ..TrainerConfig::default()
    };
    eprintln!(
        "training GraphMixer on {} events (scale {scale})...",
        ds.num_events()
    );
    let mut trainer = Trainer::new(cfg, &ds);
    trainer.train_epoch(&ds, 0);
    let artifact = trainer.export_artifact(&ds);

    let no_health = arg_flag("--no-health");
    let serve_cfg = ServeConfig {
        workers: 2,
        batch: BatchPolicy {
            max_batch: batch,
            max_wait: Duration::from_millis(2),
        },
        publish_every: 256,
        health: HealthConfig {
            enabled: !no_health,
            ..HealthConfig::default()
        },
        ..ServeConfig::default()
    };

    // -- offline comparison: identical pipeline, batched vs one-at-a-time --
    let (pipeline, edge_feats) =
        ScorePipeline::new(artifact, None).expect("artifact is self-consistent");
    let feats = ServeFeatureCache::new(
        edge_feats.clone(),
        serve_cfg.cache_ratio,
        serve_cfg.cache_epsilon,
        serve_cfg.cache_epoch_requests,
        serve_cfg.seed,
    );
    let csr = ds.tcsr();
    let work = workload(&ds, queries, batch);

    // warm-up passes so allocator/page/arena effects don't favor any mode
    let mut scratch = ScoreScratch::new();
    let mut probs = Vec::new();
    for _ in 0..3 {
        let head = &work[..batch.min(work.len())];
        pipeline.score_batch_into(&csr, 0, head, &feats, &mut scratch, &mut probs);
        let _ = pipeline.score_batch_tape(&csr, 0, head, &feats);
    }

    let t0 = Instant::now();
    for &q in &work {
        let p = pipeline.score_one(&csr, 0, q, &feats);
        assert!(p > 0.0 && p < 1.0);
    }
    let single_secs = t0.elapsed().as_secs_f64();

    // batched through the autograd tape (the pre-fast-path scoring loop)
    let t1 = Instant::now();
    for chunk in work.chunks(batch) {
        let tape_probs = pipeline.score_batch_tape(&csr, 0, chunk, &feats);
        assert!(tape_probs.iter().all(|&p| p > 0.0 && p < 1.0));
    }
    let tape_secs = t1.elapsed().as_secs_f64();

    // batched through the zero-allocation fast path (what workers run)
    let t2 = Instant::now();
    for chunk in work.chunks(batch) {
        pipeline.score_batch_into(&csr, 0, chunk, &feats, &mut scratch, &mut probs);
        assert!(probs.iter().all(|&p| p > 0.0 && p < 1.0));
    }
    let batched_secs = t2.elapsed().as_secs_f64();

    let single_qps = queries as f64 / single_secs;
    let tape_qps = queries as f64 / tape_secs;
    let batched_qps = queries as f64 / batched_secs;
    let speedup = batched_qps / single_qps;
    let fastpath_speedup = batched_qps / tape_qps;

    // -- closed-loop engine run with a live ingest stream --
    // Closed-loop clients bound the in-flight count, so a batch can never
    // grow past `clients`. They call `score()`, which tells admission they
    // block on each ticket: a batch closes as soon as a worker is free for
    // it, and `max_wait` never comes into play.
    let engine_cfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: clients.max(2),
            max_wait: Duration::from_millis(1),
        },
        ..serve_cfg
    };
    let artifact = trainer.export_artifact(&ds); // the pipeline consumed the first
    let engine =
        Arc::new(ServeEngine::new(artifact, ds.log.clone(), engine_cfg).expect("boot engine"));
    let t_end = ds.log.events().last().expect("events").t;
    let n = ds.num_nodes as u32;
    let t2 = Instant::now();
    std::thread::scope(|s| {
        {
            let engine = engine.clone();
            s.spawn(move || {
                for i in 0..queries as u32 {
                    let _ = engine.ingest((i * 3) % n, (i * 5 + 1) % n, t_end + 1.0 + i as f64);
                }
            });
        }
        // clients interleave the same ranking workload (client c takes query
        // c, c+clients, ...), so concurrent submission reassembles the ticks
        for c in 0..clients {
            let engine = engine.clone();
            let work = &work;
            s.spawn(move || {
                for q in work.iter().skip(c).step_by(clients) {
                    // closed-loop clients with default admission limits
                    // never overflow a lane, so every query is admitted
                    let r = engine
                        .score(q.src, q.dst, q.t + 10_000.0)
                        .expect("admitted under closed-loop load");
                    assert!(r.prob > 0.0 && r.prob < 1.0);
                }
            });
        }
    });
    let engine_secs = t2.elapsed().as_secs_f64();
    let stats = engine.stats();
    let engine_qps = stats.queries as f64 / engine_secs;

    println!("== serve throughput ({queries} queries, batch {batch}) ==");
    println!("single-query        : {single_qps:>9.1} q/s");
    println!("micro-batched (tape): {tape_qps:>9.1} q/s");
    println!(
        "micro-batched (fast): {batched_qps:>9.1} q/s  ({speedup:.1}x single, {fastpath_speedup:.2}x tape)"
    );
    println!(
        "engine (closed-loop, {clients} clients + ingest): {engine_qps:>9.1} q/s, \
         p50 {} us, p99 {} us, mean batch {:.1}, gen {}",
        stats.p50_us, stats.p99_us, stats.mean_batch, stats.generation
    );
    if speedup < 5.0 {
        eprintln!("WARNING: batched speedup {speedup:.2}x below the 5x target");
    }

    let json = format!(
        concat!(
            "{{\"harness\":\"serve_throughput\",\"scale\":{},\"queries\":{},",
            "\"batch\":{},\"clients\":{},\"single_qps\":{:.2},",
            "\"batched_tape_qps\":{:.2},\"batched_qps\":{:.2},",
            "\"batched_speedup\":{:.3},\"fastpath_speedup\":{:.3},",
            "\"engine_qps\":{:.2},\"engine\":{}}}"
        ),
        scale,
        queries,
        batch,
        clients,
        single_qps,
        tape_qps,
        batched_qps,
        speedup,
        fastpath_speedup,
        engine_qps,
        stats.to_json()
    );
    let mut f = std::fs::File::create(&out_path).expect("create bench output");
    writeln!(f, "{json}").expect("write bench output");
    eprintln!("results -> {out_path}");
}

//! Workload `train_epoch`: the paper's own workload — TASER training epochs
//! (adaptive mini-batch selection + adaptive neighbor sampling) of a
//! GraphMixer on the synthetic Wikipedia analog, in the paper's NF/AS/FS/PP
//! terms (Table III). The adaptive sampler and the autograd tape dominate;
//! a serving-path change must not move it.

use crate::common::{close_root, layer, ratio, repeat_setup, Ctx, Report};
use crate::proc;
use crate::spans::ROOT;
use crate::stats;
use std::time::{Duration, Instant};
use taser_cache::{oracle_hit_rate, CachePolicy};
use taser_core::trainer::{Backbone, EpochReport, Trainer, TrainerConfig, Variant};
use taser_core::DecoderHead;
use taser_graph::synth::SynthConfig;
use taser_graph::TemporalDataset;
use taser_sample::{FinderKind, NeighborFinder, SamplePolicy};

/// Synthetic Wikipedia at this scale: 2 362 events, 1 653 of them training.
pub const SCALE: f64 = 0.015;
pub const EDGE_DIM: usize = 32;
pub const CACHE_RATIO: f64 = 0.2;
pub const CACHE_EPSILON: f64 = 0.7;
/// Epochs before `val_mrr` and `loss_final` are read. Fixed, so both repeat
/// exactly at one seed and thread count however many epochs fit the window.
pub const EVAL_AFTER_EPOCHS: usize = 4;

/// Paper hyper-parameters (n = 10, m = 25, γ = 0.1, batch 200) at the
/// 2-core model sizes `taser-bench`'s accuracy harnesses use, spelled out
/// here so edits to that crate cannot change this workload.
fn config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        backbone: Backbone::GraphMixer,
        variant: Variant::Taser,
        batch_size: 200,
        hidden: 32,
        time_dim: 16,
        sampler_dim: 12,
        heads: 2,
        n_neighbors: 10,
        finder_budget: 25,
        gamma: 0.1,
        decoder_head: DecoderHead::Linear,
        finder: FinderKind::Gpu,
        cache: CachePolicy::Dynamic {
            ratio: CACHE_RATIO,
            epsilon: CACHE_EPSILON,
        },
        eval_events: Some(150),
        eval_chunk: 25,
        seed,
        ..TrainerConfig::default()
    }
}

fn setup(seed: u64) -> (TemporalDataset, Trainer) {
    let ds = SynthConfig::wikipedia()
        .feat_dims(0, EDGE_DIM)
        .scale(SCALE)
        .seed(seed)
        .build();
    let mut trainer = Trainer::new(config(seed), &ds);
    // warm-up epoch: first-touch allocation, pool spin-up, cache fill
    trainer.train_epoch(&ds, 0);
    (ds, trainer)
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let root = ctx.tracer.add(ROOT, "train_epoch", layer::LOADGEN, 0, 0, 0);

    let ((ds, mut trainer), setup_s) = repeat_setup(ctx, root, |ctx| Ok(setup(ctx.seed)))?;
    r.set("setup_s", setup_s);
    if ctx.trace {
        trainer
            .edge_store_mut()
            .ok_or("trainer has no edge feature store")?
            .record_trace(true);
    }

    // -- measured epochs: as many as fit the window, at least the fixed
    //    number the quality read-out needs --
    let min_epochs = if ctx.quick { 1 } else { EVAL_AFTER_EPOCHS };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut walls = Vec::new();
    let mut reports: Vec<EpochReport> = Vec::new();
    let mut traces: Vec<Vec<u32>> = Vec::new();
    let mut quality = None;
    while reports.len() < min_epochs || Instant::now() < deadline {
        let epoch = reports.len() + 1;
        let t0 = ctx.tracer.now();
        let report = trainer.train_epoch(&ds, epoch);
        let t1 = ctx.tracer.now();
        walls.push((t1 - t0) as f64 / 1e9);
        if ctx.trace {
            traces.push(
                trainer
                    .edge_store_mut()
                    .expect("checked above")
                    .take_trace(),
            );
            record_epoch_spans(ctx, root, t0, t1, &report);
        }
        reports.push(report);
        if reports.len() == min_epochs {
            let loss = reports[min_epochs - 1].loss;
            quality = Some((loss, trainer.evaluate(&ds, ds.val_events())));
        }
    }
    let (loss_final, val_mrr) = quality.expect("at least min_epochs ran");
    // This shared machine slows down for seconds at a time; those episodes
    // inflate a mean (and a maximum) but leave the median epoch alone, so
    // throughput is events per *median* epoch and the tail is the slower
    // quartile, not the slowest epoch.
    let train_events = ds.train_events().len();
    let total_wall: f64 = walls.iter().sum();
    let mut sorted = walls.clone();
    stats::sort(&mut sorted);
    let median_wall = stats::median(&walls);
    let train_eps = train_events as f64 / median_wall;

    r.attempted = walls.len() as u64;
    r.set("ops_per_s", train_eps);
    r.set("p50_us", median_wall * 1e6);
    r.set("tail_us", stats::percentile(&sorted, 0.75) * 1e6);
    r.set_opt(
        "rss_mb",
        proc::own_peak_rss_mb(),
        "/proc/self/status unreadable",
    );
    for rep in &reports {
        if !rep.loss.is_finite() {
            r.failed += 1;
            r.violations
                .push(format!("epoch {}: loss {}", rep.epoch, rep.loss));
        }
    }
    r.check(val_mrr > 0.0 && val_mrr <= 1.0, || {
        format!("val_mrr {val_mrr} outside (0, 1]")
    });

    if ctx.trace {
        let n = reports.len() as f64;
        let ms = |f: fn(&EpochReport) -> Duration| {
            reports
                .iter()
                .map(|rep| f(rep).as_secs_f64() * 1e3)
                .sum::<f64>()
                / n
        };
        let phases = [
            (
                "trainer.nf_ms",
                "trainer.nf_share",
                ms(|rep| rep.timings.neighbor_find),
            ),
            (
                "trainer.as_ms",
                "trainer.as_share",
                ms(|rep| rep.timings.adaptive_sample),
            ),
            (
                "trainer.fs_ms",
                "trainer.fs_share",
                ms(|rep| rep.timings.feature_slice),
            ),
            (
                "trainer.pp_ms",
                "trainer.pp_share",
                ms(|rep| rep.timings.propagate),
            ),
        ];
        let epoch_ms = total_wall * 1e3 / n;
        let mut covered = 0.0;
        for (ms_name, share_name, v) in phases {
            r.set(ms_name, v);
            r.set(share_name, v / epoch_ms);
            covered += v;
        }
        // epoch wall the four phases do not cover: the ledger's remainder
        let other = 1.0 - covered / epoch_ms;
        r.set("trainer.other_share", other);
        if other > 0.1 {
            eprintln!(
                "train_epoch: {:.1}% of epoch wall is outside NF/AS/FS/PP",
                other * 100.0
            );
        }
        r.set("trainer.loss_final", f64::from(loss_final));
        r.set("trainer.val_mrr", val_mrr);
        r.set("trainer.train_eps", train_eps);
        r.set("sample.modeled_nf_ms", ms(|rep| rep.modeled_nf_time));
        r.set("cache.modeled_slice_ms", ms(|rep| rep.modeled_slice_time));

        let hit: Vec<f64> = reports
            .iter()
            .filter_map(|rep| rep.cache.as_ref().map(|c| c.hit_rate))
            .collect();
        let capacity = (ds.num_events() as f64 * CACHE_RATIO) as usize;
        let oracle: Vec<f64> = traces
            .iter()
            .map(|t| oracle_hit_rate(t, ds.num_events(), capacity))
            .collect();
        let (hit, oracle) = (stats::mean(&hit), stats::mean(&oracle));
        r.set("cache.hit_rate", hit);
        r.set("cache.oracle_hit_rate", oracle);
        r.set_opt(
            "cache.hit_vs_oracle",
            ratio(hit, oracle),
            "oracle hit rate is 0",
        );
        finder_probes(ctx, root, &ds, &mut r);

        ctx.tracer.count("epochs", reports.len() as u64);
        r.set_loadgen_counts();
        r.set("loadgen.graph_events", ds.num_events() as f64);
        r.set("loadgen.seed_events", train_events as f64);
        r.set("trace.ops_per_s", train_eps);
    }
    close_root(ctx, root);
    Ok(r)
}

/// One span per epoch with the trainer's own NF/AS/FS/PP totals laid end to
/// end inside it (they interleave per batch in reality; only the sums are
/// known from outside). The epoch span's self time is the `other` share.
fn record_epoch_spans(ctx: &mut Ctx, root: u32, t0: u64, t1: u64, report: &EpochReport) {
    let epoch = ctx.tracer.add(
        root,
        format!("epoch {}", report.epoch),
        layer::TRAINER,
        t0,
        t1,
        report.epoch as u64,
    );
    let mut cursor = t0;
    for (name, charged_to, d) in [
        (
            "NF neighbor_find",
            layer::SAMPLE,
            report.timings.neighbor_find,
        ),
        (
            "AS adaptive_sample",
            layer::TRAINER,
            report.timings.adaptive_sample,
        ),
        (
            "FS feature_slice",
            layer::CACHE,
            report.timings.feature_slice,
        ),
        ("PP propagate", layer::TRAINER, report.timings.propagate),
    ] {
        let end = cursor + d.as_nanos() as u64;
        ctx.tracer
            .add(epoch, name, charged_to, cursor, end, report.epoch as u64);
        cursor = end;
    }
}

/// `NeighborFinder::sample` on the epoch's chronological root batches
/// (source and destination of each training event), budget m = 25, for
/// each finder; mean µs per batch.
fn finder_probes(ctx: &mut Ctx, root: u32, ds: &TemporalDataset, r: &mut Report) {
    let cfg = config(ctx.seed);
    let csr = ds.tcsr();
    let batches: Vec<Vec<(u32, f64)>> = ds
        .train_events()
        .chunks(cfg.batch_size)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|e| [(e.src, e.t), (e.dst, e.t)])
                .collect()
        })
        .collect();
    let rounds = if ctx.quick { 1 } else { 5 };
    for (metric, kind) in [
        ("sample.finder_us.origin", FinderKind::Origin),
        ("sample.finder_us.tgl", FinderKind::Tgl),
        ("sample.finder_us.gpu", FinderKind::Gpu),
    ] {
        let mut finder = NeighborFinder::new(kind, ds.num_nodes);
        let ns = ctx.tracer.scope(
            root,
            &format!("probe:finder {}", kind.name()),
            layer::SAMPLE,
            |t, _| {
                let t0 = t.now();
                for round in 0..rounds {
                    finder.reset_epoch();
                    for (i, roots) in batches.iter().enumerate() {
                        let seed = (round * batches.len() + i) as u64;
                        let out = finder.sample(
                            &csr,
                            roots,
                            cfg.finder_budget,
                            SamplePolicy::Uniform,
                            seed,
                        );
                        std::hint::black_box(out);
                    }
                }
                t.now() - t0
            },
        );
        r.set(metric, ns as f64 / 1e3 / (rounds * batches.len()) as f64);
    }
}

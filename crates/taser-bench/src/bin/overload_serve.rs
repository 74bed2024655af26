//! Open-loop overload harness for the admission-controlled serve engine.
//!
//! Closed-loop clients can never overload a server: each waits for its
//! answer before asking again, so the offered rate self-limits to the
//! service rate. Real streams are **open-loop** — arrivals keep coming
//! whether or not the server keeps up — so this harness drives a live
//! [`ServeEngine`] with a Poisson-ish arrival process at 0.5×/1×/2× its
//! measured capacity and reports what the admission layer does about it:
//! goodput (queries answered within their SLO per second), shed rate
//! (typed `Overloaded` rejections), and the p99.9 latency of admitted
//! queries — which stays bounded under 2× overload because the per-lane
//! queues are capped, where an unbounded queue's tail would diverge.
//!
//! Capacity is measured first, on the same machine in the same process:
//! the zero-allocation batched scoring loop (what the engine's workers
//! execute) timed over the calibration workload. Arrivals split across
//! priority lanes: 1 in 4 queries ride lane 0 (interactive), the rest
//! lane 1 (background) — under overload lane 0 drains first, so its SLO
//! attainment degrades last.
//!
//! Prints one row per offered-rate multiplier and writes
//! `BENCH_overload.json`; see `EXPERIMENTS.md` ("Overload harness").
//! `--assert-overload` turns the 2× expectations (shedding engaged,
//! nonzero goodput, bounded p99.9) into hard exit-code failures — the CI
//! overload-smoke job runs it that way.
//!
//! `--assert-health` adds a burn-alert round trip on ONE long-lived
//! engine with short watchdog windows: drive 2× capacity until the
//! per-lane SLO burn alert reaches Critical and the `health` surface
//! reports it, then drop to 0.5× and require recovery to Ok. Timeouts on
//! either edge are exit-code failures — the CI health-smoke job runs it
//! that way.
//!
//! ```sh
//! cargo run --release -p taser-bench --bin overload_serve \
//!   [-- --scale 0.008 --slo-us 20000 --queue-cap 128 --lanes 2 \
//!       --duration-ms 1000 --quick --assert-overload --assert-health \
//!       --out BENCH_overload.json --trace-out overload_trace.json]
//! ```
//!
//! `--trace-out <path>` enables span tracing before the engines boot and
//! dumps a chrome://tracing JSON of the per-stage worker spans at exit.

use std::io::Write;
use std::time::{Duration, Instant};
use taser_bench::{arg_flag, arg_value};
use taser_core::trainer::{Backbone, Trainer, TrainerConfig, Variant};
use taser_graph::synth::SynthConfig;
use taser_obs::AlertLevel;
use taser_serve::{BatchPolicy, HealthConfig, LinkQuery, ServeConfig, ServeEngine, ServeStats};

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

/// Deterministic xorshift-ish generator for exponential inter-arrival gaps.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// Exponential inter-arrival gap (seconds) for a Poisson process at
    /// `rate` arrivals per second.
    fn exp_gap(&mut self, rate: f64) -> f64 {
        let u = self.next_f64().max(1e-12);
        -u.ln() / rate
    }
}

struct RateRow {
    mult: f64,
    offered_qps: f64,
    arrivals: u64,
    goodput_qps: f64,
    stats: ServeStats,
}

/// Drives an open-loop Poisson stream at `rate` against `engine` until
/// `until` returns true (polled every 64 arrivals) or `timeout` elapses,
/// then waits out every admitted ticket. Returns the drive duration and
/// whether the condition was met. Lane split matches the rate sweep:
/// 1-in-4 arrivals ride lane 0.
fn drive_until(
    engine: &ServeEngine,
    rate: f64,
    seed: u64,
    query_at: &dyn Fn(u64) -> LinkQuery,
    until: &dyn Fn() -> bool,
    timeout: Duration,
) -> (Duration, bool) {
    let mut rng = Lcg(seed);
    let start = Instant::now();
    let mut next = rng.exp_gap(rate);
    let mut arrivals = 0u64;
    let mut tickets = Vec::new();
    let mut met = false;
    loop {
        if arrivals.is_multiple_of(64) && until() {
            met = true;
            break;
        }
        if start.elapsed() > timeout {
            break;
        }
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= next {
                break;
            }
            let gap = next - elapsed;
            if gap > 500e-6 {
                std::thread::sleep(Duration::from_secs_f64(gap - 300e-6));
            } else {
                std::hint::spin_loop();
            }
        }
        let q = query_at(arrivals);
        let lane = usize::from(!arrivals.is_multiple_of(4));
        if let Ok(t) = engine.submit_lane(q.src, q.dst, q.t, lane) {
            tickets.push(t);
        }
        arrivals += 1;
        next += rng.exp_gap(rate);
    }
    let elapsed = start.elapsed();
    for t in tickets {
        let _ = t.wait();
    }
    (elapsed, met)
}

fn main() {
    let quick = arg_flag("--quick");
    let scale = parsed("--scale", if quick { 0.004 } else { 0.008 });
    let slo_us = parsed("--slo-us", if quick { 50_000u64 } else { 20_000u64 });
    let queue_cap = parsed("--queue-cap", 128usize);
    let lanes = parsed("--lanes", 2usize);
    let workers = parsed("--workers", 1usize);
    let batch = parsed("--batch", 64usize);
    let duration_ms = parsed("--duration-ms", if quick { 300u64 } else { 1000u64 });
    let calib_queries = parsed("--calib-queries", if quick { 512usize } else { 2048 });
    let assert_overload = arg_flag("--assert-overload");
    let assert_health = arg_flag("--assert-health");
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_overload.json".into());
    let trace_out = arg_value("--trace-out");
    if trace_out.is_some() {
        // before any engine boots so every worker's spans are captured
        taser_obs::set_tracing(true);
    }

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
        hidden: 32,
        time_dim: 16,
        n_neighbors: 10,
        seed: 7,
        ..TrainerConfig::default()
    };
    eprintln!(
        "training GraphMixer on {} events (scale {scale})...",
        ds.num_events()
    );
    let mut trainer = Trainer::new(cfg, &ds);
    trainer.train_epoch(&ds, 0);

    let serve_cfg = ServeConfig {
        workers,
        batch: BatchPolicy {
            max_batch: batch,
            max_wait: Duration::from_millis(1),
        },
        slo: Duration::from_micros(slo_us),
        queue_cap,
        lanes,
        publish_every: 0,
        ..ServeConfig::default()
    };

    let t_end = ds.log.events().last().expect("events").t;
    let n = ds.num_nodes as u32;
    let query_at = |i: u64| LinkQuery {
        src: ((i * 31) % u64::from(n)) as u32,
        dst: ((i * 17 + 1) % u64::from(n)) as u32,
        t: t_end + 1.0 + i as f64 * 1e-3,
    };

    // -- capacity: a live engine driven flat-out, so the estimate includes
    //    everything the rate sweep will pay (batch formation, ticket
    //    wakeups, the submitting thread competing for cores) and the
    //    multipliers below mean what they say. The calibration engine gets
    //    an effectively unbounded queue and SLO so nothing sheds. --
    let calib_cfg = ServeConfig {
        slo: Duration::from_secs(3600),
        queue_cap: calib_queries.max(1),
        ..serve_cfg
    };
    let mut capacity_qps = 0f64;
    for _ in 0..2 {
        let artifact = trainer.export_artifact(&ds);
        let engine = ServeEngine::new(artifact, ds.log.clone(), calib_cfg).expect("boot engine");
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..calib_queries as u64)
            .map(|i| {
                let q = query_at(i);
                engine
                    .submit(q.src, q.dst, q.t)
                    .expect("calibration engine never sheds")
            })
            .collect();
        for t in tickets {
            t.wait().expect("calibration queries all score");
        }
        capacity_qps = capacity_qps.max(calib_queries as f64 / t0.elapsed().as_secs_f64());
    }
    eprintln!("measured capacity: {capacity_qps:.0} q/s (live engine, batch {batch}, {workers} worker(s))");

    // -- open-loop rate sweep: fresh engine per multiplier so counters and
    //    histograms describe exactly one operating point --
    let duration = Duration::from_millis(duration_ms).as_secs_f64();
    let mut rows: Vec<RateRow> = Vec::new();
    for mult in [0.5, 1.0, 2.0] {
        let rate = capacity_qps * mult;
        let artifact = trainer.export_artifact(&ds);
        let engine = ServeEngine::new(artifact, ds.log.clone(), serve_cfg).expect("boot engine");
        let mut rng = Lcg(0x9E3779B97F4A7C15 ^ (mult * 1e6) as u64);
        let start = Instant::now();
        let mut next = rng.exp_gap(rate);
        let mut arrivals = 0u64;
        let mut tickets = Vec::new();
        while next < duration {
            // pace to the arrival time: coarse sleep, then spin the tail
            loop {
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= next {
                    break;
                }
                let gap = next - elapsed;
                if gap > 500e-6 {
                    std::thread::sleep(Duration::from_secs_f64(gap - 300e-6));
                } else {
                    std::hint::spin_loop();
                }
            }
            let q = query_at(arrivals);
            let lane = usize::from(!arrivals.is_multiple_of(4)); // 1-in-4 interactive
            if let Ok(t) = engine.submit_lane(q.src, q.dst, q.t, lane) {
                tickets.push(t);
            } // sheds are counted by the engine
            arrivals += 1;
            next += rng.exp_gap(rate);
        }
        let offered_secs = start.elapsed().as_secs_f64();
        for t in tickets {
            let _ = t.wait(); // admitted queries resolve: scored or shed-typed
        }
        let total_secs = start.elapsed().as_secs_f64();
        let stats = engine.stats();
        let row = RateRow {
            mult,
            offered_qps: arrivals as f64 / offered_secs,
            arrivals,
            goodput_qps: stats.slo_met as f64 / total_secs,
            stats,
        };
        println!(
            "x{:.1}: offered {:>8.0} q/s | admitted {:>6} shed {:>6} ({:>5.1}%) | \
             goodput {:>8.0} q/s | p50 {} us p99 {} us p99.9 {} us | slo met {} missed {}",
            row.mult,
            row.offered_qps,
            row.stats.admitted,
            row.stats.shed(),
            100.0 * row.stats.shed() as f64 / row.arrivals.max(1) as f64,
            row.goodput_qps,
            row.stats.p50_us,
            row.stats.p99_us,
            row.stats.p999_us,
            row.stats.slo_met,
            row.stats.slo_missed,
        );
        rows.push(row);
    }

    // -- burn-alert round trip: ONE engine lives through overload and
    //    recovery, with watchdog windows shrunk so the multi-window burn
    //    gate resolves in seconds instead of minutes. 2x capacity must
    //    drive a per-lane SLO burn alert to Critical (and the `health`
    //    surface must say so); dropping to 0.5x must clear it back to Ok
    //    through the hysteresis path (Recovering, hold-down). --
    let mut health_failures: Vec<String> = Vec::new();
    let mut health_json_field = "null".to_string();
    if assert_health {
        let health_cfg = ServeConfig {
            health: HealthConfig {
                sample_every: Duration::from_millis(1),
                eval_every: Duration::from_millis(50),
                fast_window: Duration::from_millis(250),
                slow_window: Duration::from_millis(1000),
                slo_target: 0.99,
                hold_up: 2,
                hold_down: 3,
                ..HealthConfig::default()
            },
            ..serve_cfg
        };
        let artifact = trainer.export_artifact(&ds);
        let engine = ServeEngine::new(artifact, ds.log.clone(), health_cfg).expect("boot engine");
        let monitor_lanes = lanes;
        let burn_critical = || {
            (0..monitor_lanes).any(|l| engine.health().lane_burn_level(l) == AlertLevel::Critical)
        };
        let (fire_elapsed, fired) = drive_until(
            &engine,
            capacity_qps * 2.0,
            0xF1E1D,
            &query_at,
            &burn_critical,
            Duration::from_secs(30),
        );
        let at_fire = engine.health().health_json();
        eprintln!(
            "health phase: 2x overload for {:.0} ms -> burn critical: {fired}",
            fire_elapsed.as_secs_f64() * 1e3
        );
        eprintln!("health @ fire: {at_fire}");
        if !fired {
            health_failures.push("2x capacity never drove a lane burn alert to Critical".into());
        } else {
            if !at_fire.contains("\"level\":\"critical\"") {
                health_failures.push(format!(
                    "health surface does not report critical at fire time: {at_fire}"
                ));
            }
            if !at_fire.contains("slo_burn[") {
                health_failures.push(format!("no slo_burn alert in the firing list: {at_fire}"));
            }
        }
        let recovered_to_ok = || engine.health().level() == AlertLevel::Ok;
        let (clear_elapsed, cleared) = drive_until(
            &engine,
            capacity_qps * 0.5,
            0xC1EA5,
            &query_at,
            &recovered_to_ok,
            Duration::from_secs(60),
        );
        let at_clear = engine.health().health_json();
        eprintln!(
            "health phase: 0.5x load for {:.0} ms -> recovered to ok: {cleared}",
            clear_elapsed.as_secs_f64() * 1e3
        );
        eprintln!("health @ clear: {at_clear}");
        if fired && !cleared {
            health_failures.push("alert never recovered to Ok after load dropped to 0.5x".into());
        }
        health_json_field = format!(
            concat!(
                "{{\"fired\":{},\"fire_ms\":{:.0},\"cleared\":{},\"clear_ms\":{:.0},",
                "\"at_fire\":{},\"at_clear\":{}}}"
            ),
            fired,
            fire_elapsed.as_secs_f64() * 1e3,
            cleared,
            clear_elapsed.as_secs_f64() * 1e3,
            at_fire,
            at_clear,
        );
    }

    // -- machine-readable output --
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"mult\":{},\"offered_qps\":{:.2},\"arrivals\":{},",
                    "\"admitted\":{},\"shed\":{},\"shed_full\":{},\"shed_deadline\":{},",
                    "\"shed_rate\":{:.4},\"scored\":{},\"goodput_qps\":{:.2},",
                    "\"slo_met\":{},\"slo_missed\":{},",
                    "\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{},",
                    "\"engine\":{}}}"
                ),
                r.mult,
                r.offered_qps,
                r.arrivals,
                r.stats.admitted,
                r.stats.shed(),
                r.stats.shed_full,
                r.stats.shed_deadline,
                r.stats.shed() as f64 / r.arrivals.max(1) as f64,
                r.stats.queries,
                r.goodput_qps,
                r.stats.slo_met,
                r.stats.slo_missed,
                r.stats.p50_us,
                r.stats.p99_us,
                r.stats.p999_us,
                r.stats.max_us,
                r.stats.to_json(),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"harness\":\"overload_serve\",\"scale\":{},\"capacity_qps\":{:.2},",
            "\"slo_us\":{},\"queue_cap\":{},\"lanes\":{},\"workers\":{},",
            "\"batch\":{},\"duration_ms\":{},\"rows\":[{}],\"health\":{}}}"
        ),
        scale,
        capacity_qps,
        slo_us,
        queue_cap,
        lanes,
        workers,
        batch,
        duration_ms,
        json_rows.join(","),
        health_json_field,
    );
    let mut f = std::fs::File::create(&out_path).expect("create bench output");
    writeln!(f, "{json}").expect("write bench output");
    eprintln!("results -> {out_path}");

    if let Some(path) = trace_out {
        std::fs::write(&path, taser_obs::chrome_trace_json()).expect("write trace");
        eprintln!("trace -> {path}");
    }

    // -- overload acceptance: at 2x capacity the admission layer must shed,
    //    keep answering (nonzero goodput), and keep the admitted tail
    //    bounded (the queues are capped, so waiting is finite by design) --
    let over = rows.last().expect("three rows");
    assert!((over.mult - 2.0).abs() < 1e-9);
    let p999_bound_us = (10 * slo_us).max(1_000_000);
    let mut failures = Vec::new();
    if over.stats.shed() == 0 {
        failures.push("2x capacity did not engage shedding".to_string());
    }
    if over.stats.slo_met == 0 {
        failures.push("2x capacity produced zero goodput".to_string());
    }
    if over.stats.p999_us > p999_bound_us {
        failures.push(format!(
            "admitted p99.9 {} us exceeds the bound {} us",
            over.stats.p999_us, p999_bound_us
        ));
    }
    if failures.is_empty() {
        eprintln!("overload checks passed (shed engaged, goodput > 0, p99.9 bounded)");
    } else {
        for f in &failures {
            eprintln!("OVERLOAD CHECK FAILED: {f}");
        }
        if assert_overload {
            std::process::exit(1);
        }
    }
    if assert_health {
        if health_failures.is_empty() {
            eprintln!(
                "health checks passed (burn alert critical under 2x, recovered to ok at 0.5x)"
            );
        } else {
            for f in &health_failures {
                eprintln!("HEALTH CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

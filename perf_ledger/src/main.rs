//! perf_ledger — the repo's one benchmark. See README.md in this directory.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out run.json]
//! perf_ledger --all [--seed 1] [--seconds 20] [--quick] [--out <target>/perf_ledger/run.json]
//! perf_ledger --compare A.json… -- B.json…
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, one pass,
//! the result as one JSON object on the last line of stdout. `--all` runs
//! every workload untraced (end-to-end metrics) and again traced
//! (per-layer metrics) and writes them to one file for `--compare`.

mod catalog;
mod common;
mod compare;
mod engine_batch;
mod gen;
mod json;
mod proc;
mod spans;
mod stats;
mod train_epoch;
mod wire;
mod wire_mixed;
mod wire_query;

use common::{Ctx, Report};
use json::Value;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Default measured window, also `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 1.0;

fn die(msg: &str) -> ! {
    eprintln!("perf_ledger: {msg}");
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        match self.0.get(i + 1) {
            Some(v) => Some(v),
            None => die(&format!("{key} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.value(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value {v:?} for {key}"))),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// One pass of one workload, with its hard timeout: a workload that hangs
/// is reported as failed (and its children killed), never waited on.
fn run_pass(
    workload: &'static str,
    bin: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> (Report, Tracer) {
    let (tx, rx) = mpsc::channel();
    let bin = bin.to_path_buf();
    std::thread::spawn(move || {
        let mut ctx = Ctx {
            bin,
            seed,
            seconds,
            trace,
            quick,
            tracer: Tracer::new(),
        };
        let result = match workload {
            "wire_query" => wire_query::run(&mut ctx),
            "wire_mixed" => wire_mixed::run(&mut ctx),
            "engine_batch" => engine_batch::run(&mut ctx),
            "train_epoch" => train_epoch::run(&mut ctx),
            other => Err(format!("unknown workload {other:?}")),
        };
        let _ = tx.send((result, ctx.tracer));
    });
    let budget = Duration::from_secs_f64((seconds * 2.0 + 90.0).min(170.0));
    let (result, tracer) = match rx.recv_timeout(budget) {
        Ok(done) => done,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            proc::kill_all_children();
            (Err(format!("timed out after {budget:?}")), Tracer::new())
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            proc::kill_all_children();
            (Err("workload thread panicked".to_string()), Tracer::new())
        }
    };
    let mut report = result.unwrap_or_else(|why| Report {
        attempted: 1,
        failed: 1,
        violations: vec![why],
        ..Report::default()
    });
    report.attempted = report.attempted.max(1);
    if trace {
        report.set("trace.spans", tracer.spans.len() as f64);
        report.set("loadgen.measured_s", seconds);
        report.set("loadgen.setups", common::setups(quick) as f64);
    }
    (report, tracer)
}

/// The metrics object of one pass: every end-to-end metric untraced, every
/// per-layer metric traced (0 for a layer the workload did not exercise).
fn metrics_value(report: &mut Report, trace: bool) -> Value {
    let mut fields = Vec::new();
    if trace {
        for m in &catalog::PER_LAYER {
            let v = report.metrics.get(m.name).copied().unwrap_or(0.0);
            fields.push((m.name, v, m.unit));
        }
    } else {
        for m in &catalog::END_TO_END {
            match report.metrics.get(m.name) {
                Some(&v) if v.is_finite() && v > 0.0 => fields.push((m.name, v, m.unit)),
                other => {
                    report.violations.push(format!(
                        "end-to-end metric {} not measured ({other:?})",
                        m.name
                    ));
                    fields.push((m.name, 0.0, m.unit));
                }
            }
        }
    }
    Value::Obj(
        fields
            .into_iter()
            .map(|(name, v, unit)| {
                let body = vec![
                    ("value".to_string(), Value::Num(v)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Obj(body))
            })
            .collect(),
    )
}

fn print_rows(workload: &str, report: &Report, metrics: &Value) {
    for (name, m) in metrics.fields() {
        let unit = match m.get("unit") {
            Some(Value::Str(u)) => u.as_str(),
            _ => "",
        };
        println!(
            "{workload} {name} {} {unit}",
            Value::Num(m.num_at("value").unwrap_or(0.0)).render()
        );
    }
    for (name, why) in &report.unmeasured {
        eprintln!("{workload} {name} unmeasured: {why}");
    }
    for note in &report.notes {
        eprintln!("{workload} note: {note}");
    }
    for v in &report.violations {
        eprintln!("{workload} CHECK FAILED: {v}");
    }
}

fn write_trace(tracer: &Tracer, path: &Path) {
    if let Err(e) = std::fs::write(path, tracer.chrome_trace_json()) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        eprintln!("trace -> {}", path.display());
    }
}

fn run_file(quick: bool, seed: u64, seconds: f64, workloads: Vec<(String, Value)>) -> Value {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("benchmark".into(), Value::Str("perf_ledger".into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("available_parallelism".into(), Value::Num(threads as f64)),
        ("workloads".into(), Value::Obj(workloads)),
    ])
}

/// `--all` runs each pass in a process of its own — this binary again, in
/// its single-workload form — so an in-process workload's `rss_mb` starts
/// from a clean address space instead of inheriting the passes before it.
/// Returns the workload's body from the run file the child wrote.
fn pass_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: &Path,
) -> Value {
    let part = out.with_file_name(format!(".{workload}-{}.part.json", u8::from(trace)));
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&part);
    if quick {
        cmd.arg("--quick");
    }
    let failed = |why: String| {
        eprintln!("{workload} CHECK FAILED: {why}");
        Value::Obj(vec![("correct".into(), Value::Bool(false))])
    };
    let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
        Ok(output) => output,
        Err(e) => return failed(format!("cannot run the pass: {e}")),
    };
    // the child's rows, without its one-object result line
    for line in String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| !l.starts_with('{'))
    {
        println!("{line}");
    }
    let body = std::fs::read_to_string(&part)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .map(|doc| doc.get("workloads").and_then(|w| w.get(workload)).cloned());
    let _ = std::fs::remove_file(&part);
    match body {
        Ok(Some(body)) => body,
        Ok(None) => failed("the pass's run file names no such workload".into()),
        Err(e) => failed(format!(
            "the pass wrote no readable run file ({e}); {}",
            output.status
        )),
    }
}

fn workload_name(name: &str) -> &'static str {
    catalog::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .unwrap_or_else(|| die(&format!("unknown workload {name:?}")))
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if let Some(split) = args.0.iter().position(|a| a == "--compare") {
        let rest = &args.0[split + 1..];
        let mid = rest.iter().position(|a| a == "--").unwrap_or(rest.len());
        let b = rest.get(mid + 1..).unwrap_or(&[]);
        match compare::run(&rest[..mid], b) {
            Ok(any_worse) => std::process::exit(i32::from(any_worse)),
            Err(e) => die(&e),
        }
    }
    let quick = args.flag("--quick");
    let seed: u64 = args.parsed("--seed", 1);
    let seconds: f64 = args.parsed(
        "--seconds",
        if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        },
    );
    if !(seconds > 0.0 && seconds <= 60.0) {
        die("--seconds must be in (0, 60]");
    }
    if let Some(dir) = args.value("--out").and_then(|out| Path::new(out).parent()) {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
        }
    }
    let bin = proc::build_server().unwrap_or_else(|e| die(&e));

    if args.flag("--all") {
        let out: PathBuf = args
            .value("--out")
            .map_or_else(|| proc::out_dir().join("run.json"), PathBuf::from);
        let traced_seconds = (seconds / 2.0).max(0.5);
        let mut all_correct = true;
        let mut bodies = Vec::new();
        for w in &catalog::WORKLOADS {
            println!("# {}: {}", w.name, w.why);
            let plain = pass_in_child(w.name, seed, seconds, false, quick, &out);
            let traced = pass_in_child(w.name, seed, traced_seconds, true, quick, &out);
            // the traced pass ran with spans on: its throughput against the
            // untraced pass's is what tracing cost
            let metric =
                |body: &Value, group: &str, name: &str| body.get(group)?.get(name)?.num_at("value");
            let plain_ops = metric(&plain, "end_to_end", "ops_per_s");
            let traced_ops = metric(&traced, "per_layer", "trace.ops_per_s");
            if let Some((plain_ops, traced_ops)) = plain_ops.zip(traced_ops) {
                let share = Value::Num(1.0 - traced_ops / plain_ops);
                println!("{} trace.overhead_share {} share", w.name, share.render());
            }
            let both =
                |key: &str| plain.num_at(key).unwrap_or(1.0) + traced.num_at(key).unwrap_or(1.0);
            let correct = [&plain, &traced]
                .iter()
                .all(|body| body.get("correct") == Some(&Value::Bool(true)));
            all_correct &= correct;
            let part = |body: &Value, key: &str| body.get(key).cloned().unwrap_or(Value::Null);
            bodies.push((
                w.name.to_string(),
                Value::Obj(vec![
                    ("correct".into(), Value::Bool(correct)),
                    ("attempted".into(), Value::Num(both("attempted"))),
                    ("failed".into(), Value::Num(both("failed"))),
                    ("end_to_end".into(), part(&plain, "end_to_end")),
                    ("per_layer".into(), part(&traced, "per_layer")),
                ]),
            ));
        }
        let doc = run_file(quick, seed, seconds, bodies);
        std::fs::write(&out, doc.render() + "\n")
            .unwrap_or_else(|e| die(&format!("{}: {e}", out.display())));
        eprintln!("results -> {}", out.display());
        std::process::exit(i32::from(!all_correct));
    }

    let Some(workload) = args.value("--workload") else {
        die("give --workload <name>, --all, or --compare (see README.md)");
    };
    let workload = workload_name(workload);
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => die(&format!("bad value {other:?} for --trace (0|1)")),
    };
    let (mut report, tracer) = run_pass(workload, &bin, seed, seconds, trace, quick);
    let metrics = metrics_value(&mut report, trace);
    print_rows(workload, &report, &metrics);
    if trace {
        let path = match args.value("--out") {
            Some(out) => Path::new(out).with_file_name(format!("trace-{workload}.json")),
            None => proc::out_dir().join(format!("trace-{workload}-seed{seed}.json")),
        };
        write_trace(&tracer, &path);
    }
    if let Some(out) = args.value("--out") {
        let key = if trace { "per_layer" } else { "end_to_end" };
        let body = Value::Obj(vec![
            ("correct".into(), Value::Bool(report.correct())),
            ("attempted".into(), Value::Num(report.attempted as f64)),
            ("failed".into(), Value::Num(report.failed as f64)),
            (key.into(), metrics.clone()),
        ]);
        let doc = run_file(quick, seed, seconds, vec![(workload.to_string(), body)]);
        std::fs::write(out, doc.render() + "\n").unwrap_or_else(|e| die(&format!("{out}: {e}")));
    }
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(report.correct())),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render());
    std::process::exit(i32::from(!report.correct()));
}

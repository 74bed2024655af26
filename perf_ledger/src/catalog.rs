//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! and per-layer metrics. `BENCHMARK.json` at the repo root lists the same
//! things for the driver; a unit test holds the two equal.

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists; `--all` prints it above the workload's rows.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_query",
        why: "read-only Zipf(1.1) queries over TCP on 2 connections, 64-deep closed loop then Poisson 200 q/s: protocol, admission and engine wake do the work; a kernel or sampler change must not move it",
    },
    Workload {
        name: "wire_mixed",
        why: "256-deep ingest beside Poisson 100 q/s queries on one durable node (WAL, checkpoints, publish), then kill -9, recovery and a replica: the writer path; scoring does little",
    },
    Workload {
        name: "engine_batch",
        why: "in-process TGAT engine, uniform roots, 512 tickets outstanding so batches fill to 64, no sockets: sampling, gather and forward do the work; a wire change must not move it",
    },
    Workload {
        name: "train_epoch",
        why: "the paper's workload: TASER GraphMixer epochs (n=10, m=25, batch 200, wikipedia x0.015), quality read after 4: adaptive sampler and tape dominate; serving changes must not move it",
    },
];

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (see README.md for what each
/// means per workload).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tail_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Layer metrics have no bound; the direction is for BENCHMARK.json
    /// (the consistency test below reads it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The traced pass reports every one of these on every workload; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [Layer; 66] = [
    // taser-serve::protocol
    l("protocol.rtt_idle_us", "us", Lower),
    l("protocol.self_us", "us", Lower),
    l("protocol.parse_ns", "ns", Lower),
    l("protocol.lines", "count", Lower),
    l("protocol.bytes_in", "B", Lower),
    l("protocol.bytes_out", "B", Lower),
    // taser-serve::admission
    l("admission.wait_ns", "ns", Lower),
    l("admission.mean_batch", "count", Higher),
    l("admission.shed_share", "share", Lower),
    l("admission.submit_ns", "ns", Lower),
    // taser-serve::engine
    l("engine.respond_ns", "ns", Lower),
    l("engine.batch_assembly_ns", "ns", Lower),
    l("engine.worker_restarts", "count", Lower),
    l("engine.overhead_ratio", "ratio", Lower),
    // taser-serve::pipeline, taser-sample, features + taser-cache, taser-models::infer
    l("pipeline.qps", "1/s", Higher),
    l("sample.ns", "ns", Lower),
    l("features.gather_ns", "ns", Lower),
    l("models.forward_ns", "ns", Lower),
    l("features.hit_rate", "share", Higher),
    l("features.unknown_share", "share", Lower),
    // taser-serve::snapshot, taser-graph::wal, taser-index
    l("snapshot.ingest_ns", "ns", Lower),
    l("snapshot.ckpt_ms", "ms", Lower),
    l("snapshot.ack_max_ms", "ms", Lower),
    l("snapshot.unpublished_mean", "count", Lower),
    l("snapshot.recover_ms", "ms", Lower),
    l("snapshot.replay_eps", "1/s", Higher),
    l("wal.append_ns", "ns", Lower),
    l("wal.bytes_per_event", "B", Lower),
    l("index.append_ns", "ns", Lower),
    l("index.publish_us", "us", Lower),
    // taser-serve::replication
    l("replication.bootstrap_ms", "ms", Lower),
    l("replication.catchup_eps", "1/s", Higher),
    // taser-core::trainer (paper Table III)
    l("trainer.nf_ms", "ms", Lower),
    l("trainer.as_ms", "ms", Lower),
    l("trainer.fs_ms", "ms", Lower),
    l("trainer.pp_ms", "ms", Lower),
    l("trainer.nf_share", "share", Lower),
    l("trainer.as_share", "share", Lower),
    l("trainer.fs_share", "share", Lower),
    l("trainer.pp_share", "share", Lower),
    l("trainer.other_share", "share", Lower),
    l("trainer.loss_final", "loss", Lower),
    l("trainer.train_eps", "1/s", Higher),
    l("trainer.val_mrr", "mrr", Higher),
    l("sample.modeled_nf_ms", "ms", Lower),
    l("cache.modeled_slice_ms", "ms", Lower),
    // taser-sample / taser-cache, called directly
    l("sample.finder_us.origin", "us", Lower),
    l("sample.finder_us.tgl", "us", Lower),
    l("sample.finder_us.gpu", "us", Lower),
    l("cache.hit_rate", "share", Higher),
    l("cache.oracle_hit_rate", "share", Higher),
    l("cache.hit_vs_oracle", "ratio", Higher),
    // loadgen: the benchmark's own health
    l("loadgen.sent", "count", Higher),
    l("loadgen.ok", "count", Higher),
    l("loadgen.failed", "count", Lower),
    l("loadgen.fail_share", "share", Lower),
    l("loadgen.qps", "1/s", Higher),
    l("loadgen.ingest_eps", "1/s", Higher),
    l("loadgen.late_p99_us", "us", Lower),
    l("loadgen.tail_window_samples", "count", Higher),
    l("trace.ops_per_s", "1/s", Higher),
    l("trace.spans", "count", Lower),
    // sizes the other numbers depend on
    l("loadgen.graph_events", "count", Higher),
    l("loadgen.seed_events", "count", Higher),
    l("loadgen.setups", "count", Higher),
    l("loadgen.measured_s", "s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Arr(items)) => items,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let workloads: Vec<(&str, &str)> = arr(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        let e2e: Vec<(&str, &str, &str, f64)> = arr(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.num_at("bound").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.name(), m.bound))
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(&str, &str, &str)> = arr(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.name()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn names_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(
                ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}

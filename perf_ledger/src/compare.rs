//! `--compare A.json… -- B.json…`: one row per (workload, end-to-end
//! metric) with each side's median and quartiles, the ratio with its base,
//! the bound, and a verdict.

use crate::catalog::{self, Better};
use crate::json::{self, Value};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread on a side is wider than the bound: the runs cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the base, `b` the candidate. `spread_matters` is false for
/// `setup_s` only: like the driver's acceptance check, the comparison
/// holds its median to the bound but not its run-to-run spread (a set-up
/// is a handful of process boots, and too short to average this machine's
/// stalls away).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, spread_matters: bool) -> Verdict {
    if spread_matters && (spread(a) > bound || spread(b) > bound) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // positive = candidate is worse by that share of the base
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// (workload, metric) → values, one per run file.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn load_side(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("quick") != Some(&Value::Bool(false)) {
            return Err(format!(
                "{path}: a --quick run (or not a run file) cannot be compared"
            ));
        }
        let workloads = doc
            .get("workloads")
            .ok_or(format!("{path}: no workloads"))?;
        for (workload, body) in workloads.fields() {
            if body.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!(
                    "{path}: workload {workload} failed its output checks"
                ));
            }
            for (metric, m) in body.get("end_to_end").map_or(&[][..], Value::fields) {
                if let Some(v) = m.num_at("value") {
                    side.entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(side)
}

/// Prints the table; `Ok(true)` when some row is `worse`.
pub fn run(a_paths: &[String], b_paths: &[String]) -> Result<bool, String> {
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("usage: --compare A.json… -- B.json…".into());
    }
    let (a, b) = (load_side(a_paths)?, load_side(b_paths)?);
    println!(
        "{:<13} {:<10} {:>12} {:>23} {:>12} {:>23} {:>14} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound"
    );
    let mut any_worse = false;
    for w in &catalog::WORKLOADS {
        for m in &catalog::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let v = verdict(va, vb, m.better, m.bound, m.name != "setup_s");
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<13} {:<10} {:>12.4} {:>11.4}..{:<10.4} {:>12.4} {:>11.4}..{:<10.4} {:>6.3}x of A  {:>6.2}  {}",
                w.name, m.name, qa.1, qa.0, qa.2, qb.1, qb.0, qb.2,
                if qa.1 == 0.0 { f64::NAN } else { qb.1 / qa.1 },
                m.bound, v.name(),
            );
        }
    }
    println!(
        "A: {} run(s), B: {} run(s); spread = (q3 - q1) / median",
        a_paths.len(),
        b_paths.len()
    );
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0];
        let v = |b: &[f64], better| verdict(&base, b, better, 0.1, true);
        assert_eq!(v(&[100.5, 99.5, 100.0], Better::Lower), Verdict::Same);
        assert_eq!(v(&[120.0, 121.0, 119.0], Better::Lower), Verdict::Worse);
        assert_eq!(v(&[120.0, 121.0, 119.0], Better::Higher), Verdict::Better);
        assert_eq!(v(&[80.0, 81.0, 79.0], Better::Higher), Verdict::Worse);
        // one noisy side: the difference cannot be resolved at this bound...
        assert_eq!(v(&[80.0, 120.0, 100.0], Better::Lower), Verdict::Unresolved);
        // ...unless the metric is exempt from the spread rule (setup_s)
        assert_eq!(
            verdict(&base, &[80.0, 120.0, 100.0], Better::Lower, 0.1, false),
            Verdict::Same
        );
        // a single run per side has no spread and compares by value
        assert_eq!(
            verdict(&[10.0], &[10.5], Better::Lower, 0.1, true),
            Verdict::Same
        );
    }

    #[test]
    fn quick_and_failed_files_are_refused() {
        let dir = crate::proc::TempDir::new("compare");
        let write = |name: &str, body: &str| {
            let p = dir.join(name);
            std::fs::write(&p, body).unwrap();
            p.to_str().unwrap().to_string()
        };
        let good = write(
            "good.json",
            r#"{"quick":false,"workloads":{"wire_query":{"correct":true,"end_to_end":{"p50_us":{"value":7.5,"unit":"us"}}}}}"#,
        );
        let quick = write("quick.json", r#"{"quick":true,"workloads":{}}"#);
        let failed = write(
            "failed.json",
            r#"{"quick":false,"workloads":{"wire_query":{"correct":false,"end_to_end":{}}}}"#,
        );
        let side = load_side(std::slice::from_ref(&good)).unwrap();
        assert_eq!(
            side[&("wire_query".to_string(), "p50_us".to_string())],
            vec![7.5]
        );
        assert!(load_side(&[quick]).unwrap_err().contains("--quick"));
        assert!(load_side(&[failed]).unwrap_err().contains("failed"));
        let one = std::slice::from_ref(&good);
        assert_eq!(run(one, one), Ok(false));
    }
}

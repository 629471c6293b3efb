//! The metrics the benchmark declares, and the result line that prints them.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the self-tests keep the two in step. A run prints every declared metric
//! of its mode, each with the unit declared here, or it fails.

use std::collections::BTreeMap;

use ccsim_types::ProtocolKind;
use ccsim_util::{Json, ToJson};

/// The three protocols every figure compares, with their metric suffixes.
pub const PROTOCOLS: [(ProtocolKind, &str); 3] = [
    (ProtocolKind::Baseline, "baseline"),
    (ProtocolKind::Ad, "ad"),
    (ProtocolKind::Ls, "ls"),
];

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_pct", "%"),
    ("ls_exec_norm", "%"),
    ("ls_ownacq_norm", "%"),
    ("paper_exec_error", "points"),
    ("serve_p99_cycles", "cycles"),
    ("serve_drop_pct", "%"),
];

/// Per-layer host-time metrics of the traced run: (name, unit).
pub const LAYER_TIMES: &[(&str, &str)] = &[
    ("engine.live_ns_per_access", "ns"),
    ("engine.replay_ns_per_access", "ns"),
    ("engine.sched_ns_per_access", "ns"),
    ("cache.probe_ns", "ns"),
    ("cache.l1_hit_pct", "%"),
    ("cache.l2_hit_pct", "%"),
    ("core.dir_op_ns", "ns"),
    ("network.send_ns", "ns"),
    ("network.send_faulty_ns", "ns"),
    ("harness.run_key_us", "us"),
    ("harness.warm_read_us", "us"),
    ("harness.decode_us", "us"),
    ("harness.hit_pct", "%"),
    ("harness.jobset_speedup", "x"),
    ("harness.chaos_ms_per_cell", "ms"),
    ("stats.render_us", "us"),
    ("serve.run_ns_per_txn", "ns"),
    ("serve.zipf_ns", "ns"),
    ("serve.arrival_ns", "ns"),
    ("model.ns_per_state", "ns"),
    ("model.verify_ms", "ms"),
    ("race.ns_per_event", "ns"),
    ("engine.self_s", "s"),
    ("cache.self_s", "s"),
    ("core.self_s", "s"),
    ("network.self_s", "s"),
    ("harness.self_s", "s"),
    ("stats.self_s", "s"),
    ("serve.self_s", "s"),
    ("model.self_s", "s"),
    ("race.self_s", "s"),
    ("perfbench.trace_overhead_s", "s"),
];

/// Per-layer simulated counts, one metric per protocol (`<name>.<protocol>`),
/// summed over the workload's runs: (name, unit).
pub const LAYER_COUNTS: &[(&str, &str)] = &[
    ("engine.accesses", "count"),
    ("engine.busy_cycles", "cycles"),
    ("engine.read_stall_cycles", "cycles"),
    ("engine.write_stall_cycles", "cycles"),
    ("engine.silent_stores", "count"),
    ("engine.ls_coverage_pct", "%"),
    ("core.ownership_acqs", "count"),
    ("core.invalidations", "count"),
    ("network.traffic_bytes", "bytes"),
    ("network.retransmits", "count"),
    ("serve.completed", "count"),
    ("serve.dropped", "count"),
    ("serve.max_queue", "count"),
    ("serve.hotrow_conflicts", "count"),
    ("serve.stop_cycle", "cycles"),
    ("model.states", "count"),
    ("race.events", "count"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_TIMES
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for &(name, unit) in LAYER_COUNTS {
        for (_, p) in PROTOCOLS {
            out.push((format!("{name}.{p}"), unit));
        }
    }
    out
}

/// The metrics a run in the given mode must print.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Metric values gathered by one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: every declared metric with
    /// its unit, in declaration order. Fails on a missing, undeclared or
    /// non-finite value, so a run can never print a partial result.
    pub fn metrics_json(&self, declared: &[(String, &'static str)]) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push((
                name.clone(),
                Json::obj(vec![("value", Json::F64(v)), ("unit", unit.to_json())]),
            ));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !declared.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(Json::Obj(fields))
    }
}

/// The last line a run prints.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_and_undeclared_metrics_are_refused() {
        let declared = declared(false);
        let mut r = Report::default();
        for (n, _) in &declared {
            r.set(n.clone(), 1.0);
        }
        assert!(r.metrics_json(&declared).is_ok());
        let mut missing = r.clone();
        missing.values.remove("wall_s");
        assert!(missing.metrics_json(&declared).is_err());
        let mut extra = r.clone();
        extra.set("bogus", 1.0);
        assert!(extra.metrics_json(&declared).is_err());
        let mut nan = r;
        nan.set("wall_s", f64::NAN);
        assert!(nan.metrics_json(&declared).is_err());
    }

    /// `BENCHMARK.json` at the repository root, as (name, unit) lists.
    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
        doc.req(key)
            .and_then(|l| l.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.field::<String>("name").expect("name"),
                    m.field::<String>("unit").expect("unit"),
                )
            })
            .collect()
    }

    #[test]
    fn every_metric_in_benchmark_json_is_printed_with_its_unit() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let listed = declared_in_benchmark_json(key);
            let ours: Vec<(String, String)> = declared(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            assert_eq!(
                listed, ours,
                "{key} in BENCHMARK.json and the code disagree"
            );

            let mut r = Report::default();
            for (i, (n, _)) in ours.iter().enumerate() {
                r.set(n.clone(), i as f64 + 0.5);
            }
            let line = result_line(
                10,
                0,
                r.metrics_json(&declared(trace)).expect("complete report"),
            );
            let printed = Json::parse(&line).expect("result line is JSON");
            assert_eq!(printed.field::<bool>("correct"), Ok(true));
            let metrics = printed.req("metrics").expect("metrics");
            for (i, (n, u)) in listed.iter().enumerate() {
                let m = metrics.req(n).unwrap_or_else(|_| panic!("{n} not printed"));
                assert_eq!(m.field::<String>("unit").as_deref(), Ok(u.as_str()), "{n}");
                assert_eq!(m.field::<f64>("value"), Ok(i as f64 + 0.5), "{n}");
            }
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_suffixed() {
        let all = per_layer();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.len() <= 128);
        assert!(names.contains(&"core.ownership_acqs.ls"));
    }
}

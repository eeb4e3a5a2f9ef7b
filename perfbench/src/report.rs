//! Metric registry, summary statistics and the result line.
//!
//! Every metric the benchmark can print is named here once, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Metrics printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaigns_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("best_gibs", "GiB/s"),
    ("tuning_cost_min", "sim_min"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics printed by a traced run (`--trace 1`), on every workload. A
/// layer a workload does not exercise reads 0 there; those metrics are
/// counts, bytes or shares, never times, so no time reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.early_stop.pretrain_s", "s"),
    ("core.smart_config.pretrain_s", "s"),
    ("core.pretrain_share", "ratio"),
    ("core.pretrain_stall_share", "ratio"),
    ("core.checkpoint.wal_bytes", "B"),
    ("nn.train_step_us.qnet", "us"),
    ("nn.forward_us.qnet", "us"),
    ("nn.train_step_us.surrogate", "us"),
    ("nn.forward_us.surrogate", "us"),
    ("iosim.run_us", "us"),
    ("iosim.sim_s", "sim_s"),
    ("iosim.us_per_eval", "us"),
    ("tuner.engine.evaluations", "count"),
    ("tuner.engine.cache_hit_ratio", "ratio"),
    ("tuner.scheduler.committed", "count"),
    ("tuner.scheduler.aliases", "count"),
    ("tuner.scheduler.barrier_stalls", "count"),
    ("tuner.racing.samples", "count"),
    ("tuner.racing.topups", "count"),
    ("tuner.racing.discards", "count"),
    ("tuner.racing.discard_ratio", "ratio"),
    ("trace.event_ns", "ns"),
    ("trace.jsonl_bytes", "B"),
    ("timeline.campaigns", "count"),
    ("timeline.wall_s", "s"),
    ("timeline.queue_wait_share", "ratio"),
    ("timeline.propose_share", "ratio"),
    ("timeline.simulation_share", "ratio"),
    ("timeline.surrogate_share", "ratio"),
    ("timeline.wal_share", "ratio"),
    ("timeline.trace_overhead_share", "ratio"),
    ("timeline.scheduler_stall_share", "ratio"),
    ("serve.refused", "count"),
    ("serve.warm_hit_ratio", "ratio"),
];

/// Named metric values collected by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`. Panics on a name outside the registry: that is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the registry"
        );
        self.values.insert(name, value);
    }

    /// The result line: exactly the metrics of `table`, each with its
    /// unit. Panics when one is missing or not finite.
    pub fn result_line(
        &self,
        table: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was never measured"));
                assert!(v.is_finite(), "metric `{name}` is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive `xs`, so that campaigns whose values differ
/// in scale (a 500-node application next to a kernel) weigh alike; 0 for
/// no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile `p` in (0, 1], together with the number of
/// samples that lie beyond it.
fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The highest of p99 and p90 with at least ten samples beyond it, as
/// `(label, value)`; `None` when even p90 has fewer than ten.
fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    if xs.is_empty() {
        return None;
    }
    [("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .map(|(label, p)| (label, percentile(xs, p)))
        .find(|(_, (_, beyond))| *beyond >= 10)
        .map(|(label, (value, _))| (label, value))
}

/// One human-readable latency line: count, median and the tail that has
/// enough samples behind it.
pub fn describe_latency(what: &str, xs: &[f64], scale: f64, unit: &str) -> String {
    if xs.is_empty() {
        return format!("{what}: no samples");
    }
    let tail = match tail(xs) {
        Some((label, v)) => format!("{label} {:.3} {unit}", v * scale),
        None => "no tail (fewer than 10 samples beyond p90)".to_string(),
    };
    format!(
        "{what}: n={} p50 {:.3} {unit}, {tail}",
        xs.len(),
        median(xs) * scale
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        let serde_json::Value::Array(items) = doc.get(key).expect(key) else {
            panic!("`{key}` is not a list");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(|v| v.as_str())
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(|v| v.as_str())
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name}"
            );
            assert!(unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
    }

    #[test]
    fn result_line_names_exactly_the_table() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = m.result_line(END_TO_END, true, 3, 0);
        let v: serde_json::Value = serde_json::from_str(&line).expect("result line parses");
        let serde_json::Value::Object(metrics) = v.get("metrics").expect("metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn result_line_refuses_a_missing_metric() {
        Metrics::default().result_line(END_TO_END, true, 1, 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "99 samples leave only 9 beyond p90");
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(("p90", 89.0)));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(("p99", 989.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn geomean_weighs_scales_alike() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

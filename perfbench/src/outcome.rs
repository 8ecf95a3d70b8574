//! What one run found: operation counts, correctness gates, metrics and
//! the raw samples behind them.

use retia_json::Value;

use crate::stats;

/// The benchmark's manifest. The summary line carries exactly the metrics
/// it lists for the run's mode, so every workload must measure all of them.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric the manifest lists under `section`
/// (`end_to_end` or `per_layer`).
pub fn manifest_metrics(section: &str) -> Vec<(String, String)> {
    let doc = retia_json::parse(MANIFEST).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("manifest section is an array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A run's result, printed as a detailed report line followed by the
/// one-line summary tools read.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    gates: Vec<Value>,
    metrics: Vec<(String, f64, String)>,
    raw: Vec<(String, Value)>,
    info: Vec<(String, Value)>,
}

impl Outcome {
    /// Counts `n` operations attempted, `failed` of them failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a correctness gate; a failed gate counts as a failed
    /// operation.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.ops(1, u64::from(!ok));
        let mut g = Value::object();
        g.insert("gate", Value::from(name));
        g.insert("ok", Value::from(ok));
        g.insert("detail", Value::from(detail));
        self.gates.push(g);
    }

    /// Records a metric. Non-finite values are a bug in the caller.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// Keeps the raw samples behind a metric, so medians and quartiles can
    /// be recomputed from the report.
    pub fn raw(&mut self, name: &str, samples: &[f64]) {
        let vals: Vec<Value> = samples
            .iter()
            .map(|&x| if x.is_finite() { Value::from(six_digits(x)) } else { Value::from("fail") })
            .collect();
        let mut o = Value::object();
        o.insert("n", Value::from(samples.len()));
        if let Some([q1, q2, q3]) = stats::quartiles(samples) {
            o.insert("quartiles", Value::from(vec![q1, q2, q3]));
        }
        o.insert("samples", Value::Array(vals));
        self.raw.push((name.to_string(), o));
    }

    /// Extra context for the report (shapes, lateness, counts).
    pub fn info(&mut self, name: &str, value: Value) {
        self.info.push((name.to_string(), value));
    }

    /// Whether every operation and gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The detailed report: provenance, gates, every metric the run
    /// measured (the summary keeps only the manifest's), raw samples, info.
    pub fn report(&self, provenance: Value) -> Value {
        let mut o = Value::object();
        o.insert("provenance", provenance);
        o.insert("gates", Value::Array(self.gates.clone()));
        let mut all = Value::object();
        for (name, value, unit) in &self.metrics {
            all.insert(name, metric_json(*value, unit));
        }
        o.insert("metrics", all);
        let mut raw = Value::object();
        for (k, v) in &self.raw {
            raw.insert(k, v.clone());
        }
        o.insert("raw", raw);
        let mut info = Value::object();
        for (k, v) in &self.info {
            info.insert(k, v.clone());
        }
        o.insert("info", info);
        let mut wrapper = Value::object();
        wrapper.insert("report", o);
        wrapper
    }

    /// The summary line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the last holding every metric the manifest lists for the
    /// mode (`per_layer` when traced, `end_to_end` otherwise). A listed
    /// metric the run did not measure, or measured in another unit, is a
    /// bug in the workload and aborts the run.
    pub fn summary(&self, trace: bool) -> Value {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let mut metrics = Value::object();
        for (name, unit) in manifest_metrics(section) {
            let found = self.metrics.iter().find(|(n, _, _)| *n == name);
            let Some((_, value, got)) = found else {
                panic!("the run did not measure {section} metric {name}");
            };
            assert_eq!(*got, unit, "{name} is measured in {got}, the manifest says {unit}");
            metrics.insert(&name, metric_json(*value, got));
        }
        let mut o = Value::object();
        o.insert("correct", Value::from(self.correct()));
        o.insert("attempted", Value::from(self.attempted));
        o.insert("failed", Value::from(self.failed));
        o.insert("metrics", metrics);
        o
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    let mut m = Value::object();
    m.insert("value", Value::from(value));
    m.insert("unit", Value::from(unit));
    m
}

/// `x` rounded to six significant digits, which keeps a run's report to
/// about a megabyte.
fn six_digits(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(5 - x.abs().log10().floor() as i32);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(out: &Outcome, section: &str) -> Vec<String> {
        let summary = out.summary(section == "per_layer");
        let Some(Value::Object(metrics)) = summary.get("metrics") else {
            panic!("summary has a metrics object");
        };
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn summary_holds_exactly_the_manifest_metrics_of_the_mode() {
        for section in ["end_to_end", "per_layer"] {
            let mut out = Outcome::default();
            out.metric("not.in.the.manifest", 1.0, "ms");
            for (name, unit) in manifest_metrics(section) {
                out.metric(&name, 1.0, &unit);
            }
            let want: Vec<String> = manifest_metrics(section).into_iter().map(|(n, _)| n).collect();
            assert_eq!(recorded(&out, section), want);
        }
    }

    #[test]
    #[should_panic(expected = "did not measure end_to_end metric setup_s")]
    fn summary_refuses_a_missing_metric() {
        Outcome::default().summary(false);
    }
}

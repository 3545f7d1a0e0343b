//! What one run reports: metrics, operation accounting and correctness checks.
//!
//! The human-readable account goes to standard error; standard output carries
//! exactly one line, the JSON result object, written last.

use std::fmt::Write as _;

use crate::stats;

/// The end-to-end metrics every workload prints, in the same names and
/// units, from one operation kind: a query (serve, fleet, churn) or a Sec. 5
/// experiment (paper). `ops` holds each completed operation as (completion
/// time in seconds since measuring started, latency in ms) over a loop of
/// `span_s` seconds.
///
/// * `setup_s`: the median set-up time of the run;
/// * `op_p50_ms`: the median over 5 equal time windows of each window's
///   median latency;
/// * `ops_per_s`: the median over the same windows of each window's
///   completions per second (on churn the windows also hold the mutation
///   batches, so slower writes lower it);
/// * `peak_rss_mb`: the process's peak resident set once the system was
///   built and warmed, before measuring started.
///
/// The account also gets the p90 (the median of the p90s of up to 5
/// consecutive chunks of at least 100 operations; an error with fewer) and
/// each window's median and operation count, and the peak resident set when
/// measuring ended.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    ops: &[(f64, f64)],
    span_s: f64,
    peak_rss_mb: f64,
) -> Result<(), String> {
    let mut points = ops.to_vec();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    report.samples("operation latency", points.len());
    report.metric("setup_s", setup_s, "s");
    report.metric(
        "op_p50_ms",
        stats::windowed_median(&points, span_s, "operation latency")?,
        "ms",
    );
    report.metric(
        "ops_per_s",
        stats::windowed_rate(&points, span_s, "operations")?,
        "1/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    let latencies: Vec<f64> = points.iter().map(|p| p.1).collect();
    report.note(format!(
        "operation p90 {} over {} operations (account only)",
        account_ms(stats::chunked_percentile(&latencies, 0.9, "operation latency")),
        latencies.len()
    ));
    if let Some(end) = stats::peak_rss_mib() {
        report.note(format!("peak RSS {end:.1} MiB when measuring ended (account only)"));
    }
    let windows = stats::windows(&points, span_s);
    report.note(format!(
        "per window: median ms {}; operations {}",
        windows
            .iter()
            .map(|w| stats::median(w, "window").map_or("-".into(), |m| format!("{m:.3}")))
            .collect::<Vec<_>>()
            .join(" "),
        windows
            .iter()
            .map(|w| w.len().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}

/// An account-only figure: the value in ms, or why its sample count cannot
/// support it. Only the result line's metrics fail a run.
pub fn account_ms(value: Result<f64, String>) -> String {
    match value {
        Ok(v) => format!("{v:.3} ms"),
        Err(e) => format!("not reported ({e})"),
    }
}

/// Attempted and failed operations of one kind (queries, mutation batches,
/// experiments).
#[derive(Debug, Clone)]
pub struct OpCount {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    ops: Vec<OpCount>,
    /// Sample counts behind every reported percentile.
    samples: Vec<(String, usize)>,
    checks: Vec<(String, Result<(), String>)>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric. Non-finite values are a bug in the benchmark.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        self.metrics.push((name.to_string(), value + 0.0, unit));
    }

    /// True when a metric of that name was recorded.
    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Record the operation accounting of one kind.
    pub fn ops(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        self.ops.push(OpCount {
            kind,
            attempted,
            failed,
        });
    }

    /// Record how many samples a percentile was computed from.
    pub fn samples(&mut self, what: &str, count: usize) {
        self.samples.push((what.to_string(), count));
    }

    /// Record the result of one correctness check.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.checks.push((name.to_string(), outcome));
    }

    /// A free-form line for the human-readable account.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// The failed checks, for the closing message.
    pub fn failures(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter_map(|(name, r)| r.as_ref().err().map(|e| format!("{name}: {e}")))
            .collect()
    }

    /// The human-readable account (standard error).
    pub fn render_text(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload}");
        for op in &self.ops {
            let _ = writeln!(
                out,
                "ops      {:<16} attempted {:>8}  failed {:>4}",
                op.kind, op.attempted, op.failed
            );
        }
        for (what, n) in &self.samples {
            let _ = writeln!(out, "samples  {what:<28} {n}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric   {name:<32} {value:>14.4} {unit}");
        }
        for (name, outcome) in &self.checks {
            let verdict = match outcome {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAILED: {e}"),
            };
            let _ = writeln!(out, "check    {name:<44} {verdict}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "note     {line}");
        }
        out
    }

    /// The result object (the last line of standard output).
    pub fn render_json(&self) -> String {
        let attempted: u64 = self.ops.iter().map(|o| o.attempted).sum();
        let failed: u64 = self.ops.iter().map(|o| o.failed).sum();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.correct()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut report = Report::default();
        report.ops("queries", 10, 0);
        report.ops("experiments", 2, 1);
        report.metric("latency_ms", 1.25, "ms");
        report.metric("count", 3.0, "count");
        report.check("fine", Ok(()));
        let parsed = serde_json::value_from_str(&report.render_json()).unwrap();
        let Value::Map(top) = parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(top[0].1, Value::Bool(true)));
        assert!(matches!(top[1].1, Value::U64(12)));
        assert!(matches!(top[2].1, Value::U64(1)));
        let Value::Map(metrics) = &top[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), 2);
        let Value::Map(latency) = &metrics[0].1 else {
            panic!("metric is not an object")
        };
        assert!(matches!(latency[0].1, Value::F64(v) if v == 1.25));
        assert!(matches!(&latency[1].1, Value::Str(u) if u == "ms"));
        report.check("broken", Err("no".into()));
        assert!(!report.correct());
    }
}

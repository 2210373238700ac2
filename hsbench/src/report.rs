//! The result line: named metrics with units, and the operation counts.

use crate::stats::Dist;
use std::fmt::Write as _;

/// Metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Adds a timing distribution as `<base>_p50`, `<base>_tail`,
    /// `<base>_tail_pct` and its sample count (`<base>_n` unless named).
    pub fn dist(&mut self, base: &str, count: Option<&str>, d: Dist, unit: &'static str) {
        self.push(format!("{base}_p50"), d.p50, unit);
        self.push(format!("{base}_tail"), d.tail, unit);
        self.push(format!("{base}_tail_pct"), d.tail_pct, "%");
        let count = count.map_or_else(|| format!("{base}_n"), str::to_string);
        self.push(count, d.n as f64, "count");
    }

    /// The metrics in emission order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }
}

/// One benchmark result.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked equal to its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The one-line JSON object the benchmark prints last. A non-finite
    /// value (a broken measurement) is written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.entries().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("runs_per_s", 2.5, "1/s");
        m.push("broken", f64::NAN, "s");
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m,
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"runs_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}, \
             \"broken\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn dist_emits_four_names() {
        let mut m = Metrics::default();
        m.dist(
            "chaos.check_ms",
            Some("chaos.checks"),
            summarize(&[1.0, 2.0]),
            "ms",
        );
        m.dist("ft.replan.run_ms", None, summarize(&[1.0]), "ms");
        let names: Vec<&str> = m.entries().iter().map(|e| e.0.as_str()).collect();
        assert_eq!(
            names,
            [
                "chaos.check_ms_p50",
                "chaos.check_ms_tail",
                "chaos.check_ms_tail_pct",
                "chaos.checks",
                "ft.replan.run_ms_p50",
                "ft.replan.run_ms_tail",
                "ft.replan.run_ms_tail_pct",
                "ft.replan.run_ms_n"
            ]
        );
    }
}

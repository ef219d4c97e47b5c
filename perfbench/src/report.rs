//! The result of one benchmark run: operation and check counts, the metrics,
//! and their JSON form (the last line of standard output).

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Counts and metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued plus checks made.
    pub attempted: u64,
    /// Operations that returned an error plus checks that failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one correctness check, logging it to stderr when it fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts `n` operations that completed without error.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Adds a metric; its unit comes from the metric tables.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = crate::metrics::unit_of(name);
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of an already-added metric (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// The failed share of everything attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot carry) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_counts_and_metrics() {
        let mut out = Outcome::default();
        out.ops(3);
        out.check(true, "ok");
        out.metric("setup_s", 0.8127);
        out.metric("peak_rss_bytes", 1048576.0);
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"peak_rss_bytes\": {\"value\": 1048576.0, \"unit\": \"bytes\"}}}"
        );
    }

    #[test]
    fn failed_checks_mark_the_run_incorrect() {
        let mut out = Outcome::default();
        out.ops(9);
        out.check(false, "deliberately failing check");
        assert!(out
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
        assert_eq!(out.error_rate(), 0.1);
    }
}

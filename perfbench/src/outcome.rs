//! One run's result: correctness checks, operation accounting, and the
//! metrics it reports, rendered as text lines and as the final JSON
//! line.

use std::fmt::Write as _;

/// Attempted and failed counts for one kind of operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tally {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    checks: Vec<(String, Result<(), String>)>,
    tallies: Vec<Tally>,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds operations of one kind. Every operation is attempted once;
    /// `failed` of them failed (unanswered, error-framed, refused, or
    /// lost). Repeated kinds accumulate.
    pub fn count(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        assert!(
            failed <= attempted,
            "{kind}: {failed} failed of {attempted}"
        );
        match self.tallies.iter_mut().find(|t| t.kind == kind) {
            Some(t) => {
                t.attempted += attempted;
                t.failed += failed;
            }
            None => self.tallies.push(Tally {
                kind,
                attempted,
                failed,
            }),
        }
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        let name = name.into();
        match &result {
            Ok(()) => println!("check {name}: ok"),
            Err(why) => println!("check {name}: FAILED: {why}"),
        }
        self.checks.push((name, result));
    }

    /// Records a metric and prints it by name with its unit.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!("metric {name} = {value} {unit}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn tallies(&self) -> &[Tally] {
        &self.tallies
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed).sum()
    }

    /// Failed operations over attempted operations (`0` when nothing was
    /// attempted).
    pub fn fail_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// True when every check passed, something was attempted and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
            && self.attempted() > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Prints the operation accounting behind `fail_ratio`.
    pub fn print_accounting(&self) {
        for t in &self.tallies {
            println!(
                "ops {:<22} attempted {:>9}  failed {:>6}",
                t.kind, t.attempted, t.failed
            );
        }
        println!(
            "fail_ratio = {} (failed {} / attempted {})",
            self.fail_ratio(),
            self.failed(),
            self.attempted()
        );
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": .., "unit": ..}`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted(),
            self.failed()
        )
        .expect("writing to a String cannot fail");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_ratio_sums_every_kind_of_operation() {
        let mut o = Outcome::new();
        o.count("request", 990, 3);
        o.count("reload", 8, 1);
        o.count("masked_group", 2, 0);
        o.count("request", 10, 1);
        assert_eq!(o.attempted(), 1010);
        assert_eq!(o.failed(), 5);
        assert_eq!(o.fail_ratio(), 5.0 / 1010.0);
        assert_eq!(o.tallies().len(), 3);
    }

    #[test]
    fn a_lost_group_is_a_failure_not_a_wrong_answer() {
        let mut o = Outcome::new();
        o.count("masked_group", 4, 1);
        o.check("versions", Ok(()));
        assert!(o.correct());
        assert_eq!(o.fail_ratio(), 0.25);
    }

    #[test]
    fn failed_checks_and_empty_runs_are_not_correct() {
        let mut o = Outcome::new();
        assert!(!o.correct(), "nothing attempted");
        assert_eq!(o.fail_ratio(), 0.0);
        o.count("request", 1, 0);
        assert!(o.correct());
        o.check("bits", Err("mismatch".into()));
        assert!(!o.correct());
    }

    #[test]
    #[should_panic]
    fn more_failures_than_attempts_is_a_bug() {
        Outcome::new().count("request", 1, 2);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut o = Outcome::new();
        o.count("request", 2, 0);
        o.metric("setup_s", 0.25, "s");
        o.metric("serve_p50_ms", 1.5, "ms");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"serve_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}

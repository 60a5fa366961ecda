//! The traced run's bookkeeping: per-layer metric values, spans timed
//! from the benchmark's side around calls into each crate's public
//! functions, and the breakdown report (self time per layer, share of
//! the end-to-end number, coverage, tracing overhead, and the stages
//! the benchmark cannot reach from outside the program).

use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-layer metric values recorded by a traced run.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One span of the breakdown: a layer's time per unit of end-to-end
/// work, and how much of it is covered by child spans listed under it.
struct Row {
    layer: &'static str,
    span: String,
    total_ms: f64,
    children_ms: f64,
}

/// How one end-to-end number splits across layers.
pub struct Breakdown {
    e2e_name: &'static str,
    e2e_ms: f64,
    rows: Vec<Row>,
    unreachable: Vec<&'static str>,
}

impl Breakdown {
    pub fn new(e2e_name: &'static str, e2e_ms: f64) -> Self {
        Self {
            e2e_name,
            e2e_ms,
            rows: Vec::new(),
            unreachable: Vec::new(),
        }
    }

    /// Adds a span of `total_ms` per unit, of which `children_ms` is
    /// covered by other rows (its self time is the difference).
    pub fn span(
        &mut self,
        layer: &'static str,
        span: impl Into<String>,
        total_ms: f64,
        children_ms: f64,
    ) {
        self.rows.push(Row {
            layer,
            span: span.into(),
            total_ms,
            children_ms,
        });
    }

    /// Names a stage that runs inside the program where no public call
    /// delimits it.
    pub fn unreachable(&mut self, stage: &'static str) {
        self.unreachable.push(stage);
    }

    fn self_ms(row: &Row) -> f64 {
        (row.total_ms - row.children_ms).max(0.0)
    }

    /// Sum of the layers' self times over the end-to-end number.
    pub fn coverage(&self) -> f64 {
        if self.e2e_ms <= 0.0 {
            return 0.0;
        }
        self.rows.iter().map(Self::self_ms).sum::<f64>() / self.e2e_ms
    }

    pub fn print(&self) {
        println!(
            "breakdown of {} = {:.4} ms per unit",
            self.e2e_name, self.e2e_ms
        );
        println!(
            "  {:<17} {:<44} {:>11} {:>11} {:>8}",
            "layer", "span", "total ms", "self ms", "share"
        );
        for row in &self.rows {
            let own = Self::self_ms(row);
            println!(
                "  {:<17} {:<44} {:>11.4} {:>11.4} {:>7.1}%",
                row.layer,
                row.span,
                row.total_ms,
                own,
                100.0 * own / self.e2e_ms.max(f64::MIN_POSITIVE)
            );
        }
        println!(
            "  coverage (sum of layer self times / {}) = {:.3}",
            self.e2e_name,
            self.coverage()
        );
        for stage in &self.unreachable {
            println!("  not reachable from outside the program: {stage}");
        }
    }
}

/// Reports the tracing overhead: the traced run's end-to-end number
/// against the same measurement taken untraced in the same process.
pub fn print_overhead(name: &str, untraced: f64, traced: f64) -> f64 {
    let pct = if untraced > 0.0 {
        100.0 * (traced - untraced) / untraced
    } else {
        0.0
    };
    println!("tracing overhead on {name}: untraced {untraced:.4}, traced {traced:.4} ({pct:+.1}%)");
    pct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_sums_self_times() {
        let mut b = Breakdown::new("serve_p50_ms", 10.0);
        b.span("hf_serve", "recommend_batch", 6.0, 4.0);
        b.span("hf_models", "finish", 4.0, 0.0);
        b.span("hf_net", "ping", 3.0, 0.0);
        assert!((b.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn children_larger_than_the_parent_count_as_zero_self_time() {
        let mut b = Breakdown::new("x", 2.0);
        b.span("a", "parent", 1.0, 1.5);
        assert_eq!(b.coverage(), 0.0);
    }
}

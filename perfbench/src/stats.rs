//! Sample summaries: medians, nearest-rank percentiles, and the rule
//! that a reported tail percentile must have at least ten samples
//! beyond it.

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the reports choose from, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// A set of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_vec(values: Vec<f64>) -> Self {
        Self {
            values,
            sorted: false,
        }
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` in `0..=100`; `0.0` when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.values.len();
        self.values[rank(n, p).clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Whether percentile `p` has at least [`MIN_BEYOND`] samples above
    /// its rank.
    pub fn supports(&self, p: f64) -> bool {
        beyond(self.values.len(), p) >= MIN_BEYOND
    }

    /// The highest percentile of the report ladder with at least
    /// [`MIN_BEYOND`] samples beyond it, with its value.
    pub fn highest_supported(&mut self) -> Option<(f64, f64)> {
        let p = LADDER.iter().copied().find(|&p| self.supports(p))?;
        Some((p, self.percentile(p)))
    }
}

/// Samples strictly above the nearest rank of percentile `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest rank of percentile `p` among `n` samples, `ceil(p·n/100)`,
/// with the product rounded first so that, say, p99.9 of 10 000 is rank
/// 9990 and not 9991.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    let rounded = (exact * 1e6).round() / 1e6;
    rounded.ceil() as usize
}

/// Median of a small set of repeats (e.g. several set-ups in one run).
pub fn median_of(values: &[f64]) -> f64 {
    Samples::from_vec(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(Samples::from_vec(vec![1.0; 1000]).supports(99.0));
        assert!(!Samples::from_vec(vec![1.0; 999]).supports(99.0));
        assert_eq!(beyond(10_000, 99.9), 10);
        assert!(!Samples::from_vec(vec![1.0; 9_999]).supports(99.9));
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let mut s = Samples::from_vec((1..=20_000).map(f64::from).collect());
        assert_eq!(s.highest_supported(), Some((99.9, 19_980.0)));
        let mut s = Samples::from_vec((1..=1_500).map(f64::from).collect());
        assert_eq!(s.highest_supported(), Some((99.0, 1_485.0)));
        let mut s = Samples::from_vec((1..=150).map(f64::from).collect());
        assert_eq!(s.highest_supported(), Some((90.0, 135.0)));
        let mut s = Samples::from_vec((1..=25).map(f64::from).collect());
        assert_eq!(s.highest_supported(), Some((50.0, 13.0)));
        let mut s = Samples::from_vec((1..=19).map(f64::from).collect());
        assert_eq!(s.highest_supported(), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::from_vec(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(median_of(&[0.3, 0.1, 0.2]), 0.2);
        assert_eq!(Samples::new().percentile(99.0), 0.0);
    }
}

//! Honest percentiles: a timing is reported as its median, the highest
//! percentile that still has at least ten samples beyond it, and the
//! sample count — never a tail the sample cannot support.

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a reported percentile.
const BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up past rank 990.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least ten samples ranked
/// beyond it, if any.
pub fn honest_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= rank(n, q) + BEYOND)
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timing series, summarized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub count: usize,
    pub median: f64,
    /// `(q, value)` of the honest tail, when the sample supports one.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        if samples.is_empty() {
            return Timing {
                count: 0,
                median: 0.0,
                tail: None,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Timing {
            count: sorted.len(),
            median: median(&sorted),
            tail: honest_tail(sorted.len()).map(|q| (q, percentile(&sorted, q))),
        }
    }

    /// `median=… p99=… n=…` for the report.
    pub fn render(&self) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(" p{}={v:.1}", q * 100.0),
            None => " tail=unsupported".to_owned(),
        };
        format!("median={:.1}{tail} n={}", self.median, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_inputs() {
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 0.2), 1.0);
        assert_eq!(percentile(&five, 0.5), 3.0);
        assert_eq!(percentile(&five, 0.99), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tied_inputs_report_the_tied_value() {
        let tied = vec![7.0; 40];
        assert_eq!(percentile(&tied, 0.5), 7.0);
        assert_eq!(percentile(&tied, 0.9), 7.0);
        let t = Timing::of(&tied);
        assert_eq!(t.median, 7.0);
        assert_eq!(t.tail, Some((0.5, 7.0)));
        let mut mixed = vec![1.0; 30];
        mixed.extend(vec![9.0; 30]);
        assert_eq!(percentile(&mixed, 0.5), 1.0);
        assert_eq!(percentile(&mixed, 0.51), 9.0);
        assert_eq!(median(&mixed), 5.0);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(honest_tail(0), None);
        assert_eq!(honest_tail(19), None);
        assert_eq!(honest_tail(20), Some(0.5));
        assert_eq!(honest_tail(100), Some(0.9));
        assert_eq!(honest_tail(999), Some(0.95));
        assert_eq!(honest_tail(1000), Some(0.99));
        assert_eq!(honest_tail(10_000), Some(0.999));
        let t = Timing::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.count, 1000);
        assert_eq!(t.tail, Some((0.99, 990.0)));
        assert_eq!(Timing::of(&[]).count, 0);
    }
}

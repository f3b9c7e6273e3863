//! Order statistics for the report.

/// Nearest-rank median: an actual sample, never an interpolation.
pub fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(2) - 1]
}

/// The tail: the highest percentile that still has at least ten samples
/// beyond it, i.e. the eleventh-largest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Nearest-rank percentile of `value`, in percent.
    pub percentile: f64,
    pub n: usize,
    /// Samples strictly beyond the reported rank (always 10).
    pub beyond: usize,
}

pub const TAIL_BEYOND: usize = 10;

/// `None` when there are too few samples to leave ten beyond any rank.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
        beyond: TAIL_BEYOND,
    })
}

/// Median of a small sample of repeated measurements.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!((t.n, t.beyond), (100, 10));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile, t.n), (990.0, 99.0, 1000));

        let v: Vec<f64> = (1..=66).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 56.0);
        assert!((t.percentile - 100.0 * 56.0 / 66.0).abs() < 1e-9);

        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[2.0; 11]).unwrap().percentile, 100.0 / 11.0);
    }

    #[test]
    fn p50_is_a_sample() {
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p50(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_of(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! Order statistics over timing samples.

/// Sorts a copy of `samples` ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// The median (mean of the two middle samples for an even count); 0 when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile (0 < q <= 1) by nearest rank: the smallest sample with
/// at least a `q` share of the samples at or below it; 0 when there are no
/// samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values; 0 when there are none.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The tail latency: the highest percentile that still has at least ten
/// samples beyond it, so the value never rests on fewer than ten
/// observations.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples the distribution held.
    pub samples: usize,
}

/// Computes [`Tail`] over `samples`. With fewer than eleven samples no
/// percentile has ten samples beyond it, and the median stands in.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n <= 10 {
        return Tail {
            value: median(samples),
            percentile: 50.0,
            samples: n,
        };
    }
    let idx = n - 11;
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Least-squares slope and intercept of `y` over `x`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, points.first().map_or(0.0, |p| p.1));
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (slope, my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);
    }

    #[test]
    fn median_and_fit() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.1), 10.0);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
        let (slope, icpt) = linear_fit(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]);
        assert!((slope - 2.0).abs() < 1e-12 && (icpt - 1.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}

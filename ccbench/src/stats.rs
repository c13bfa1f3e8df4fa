//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks; `NaN` on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest of the standard percentiles (p99, p95, p90, p50) that has at
/// least ten samples above it, with its label; the maximum when the sample
/// is too small for any of them.
pub fn reportable_tail(samples: &[f64]) -> (f64, &'static str) {
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90"), (0.5, "p50")] {
        if ((samples.len() as f64) * (1.0 - q)).round() >= 10.0 {
            return (quantile(samples, q), label);
        }
    }
    (quantile(samples, 1.0), "max")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&v).1, "p99");
        assert_eq!(reportable_tail(&v[..100]).1, "p90");
        assert_eq!(reportable_tail(&v[..5]).1, "max");
    }
}

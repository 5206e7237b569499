//! Order statistics over per-operation samples.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail quantile reported as `.p90`: 0.90 once a run has 100
/// samples, otherwise the highest quantile that still leaves ten
/// samples beyond it (never below the median).
pub fn tail_q(n: usize) -> f64 {
    if n >= 100 {
        0.90
    } else {
        (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.9)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(200), 0.9);
        assert_eq!(tail_q(40), 0.75);
        assert_eq!(tail_q(12), 0.5);
    }
}

//! Order statistics for latency samples.

use serde_json::{json, Value};

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and the highest percentile the sample supports.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`: the highest of p99.9/p99/p95/p90 with at
    /// least ten samples beyond it, when there is one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let tail = [99.9, 99.0, 95.0, 90.0]
            .into_iter()
            .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
            .map(|p| (p, quantile(&s, p / 100.0)));
        Summary {
            n,
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            tail,
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "n": self.n,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "tail_pct": self.tail.map(|t| t.0),
            "tail": self.tail.map(|t| t.1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert!(s.tail.is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).tail.map(|t| t.0), Some(99.0));
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).tail.map(|t| t.0), Some(90.0));
    }
}

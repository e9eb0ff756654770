//! Order statistics over latency samples.

/// A growable set of samples in one unit.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` quantile (nearest rank); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Median plus every tail percentile that has at least ten samples
    /// beyond it, with the sample count — the shape the report prints.
    pub fn summary_json(&self) -> String {
        let s = self.sorted();
        let n = s.len();
        let mut out = format!("{{\"n\":{n},\"p50\":{:.3}", quantile_sorted(&s, 0.5));
        for (name, q) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
            if (n as f64) * (1.0 - q) >= 10.0 {
                out.push_str(&format!(",\"{name}\":{:.3}", quantile_sorted(&s, q)));
            }
        }
        out.push('}');
        out
    }
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of a handful of per-round values.
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_omits_thin_tails() {
        let mut s = Samples::default();
        for v in 0..200 {
            s.push(f64::from(v));
        }
        let j = s.summary_json();
        assert!(j.contains("\"p90\"") && !j.contains("\"p99\""), "{j}");
    }
}

//! Result assembly: named metrics with unit and sample count, the
//! human-readable table, and the one-line JSON result.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or events) the value was computed from.
    pub samples: u64,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        debug_assert!(self.metrics.iter().all(|m| m.name != name), "{name} twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Prints the table, then the result object as the last stdout line.
    pub fn print(&self, header: &str, correct: bool, attempted: u64, failed: u64) {
        println!("# {header}");
        for m in &self.metrics {
            println!(
                "{:<36} {:>16.6} {:<12} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            body.join(", ")
        );
    }
}

/// A finite JSON number; NaN and infinities (a ratio over nothing)
/// are reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `xs`, which it sorts.
/// Empty input reads 0.
pub fn percentile(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of a float list (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut xs, 0.5), 50);
        assert_eq!(percentile(&mut xs, 0.99), 99);
        assert_eq!(percentile(&mut xs, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_numbers_stay_finite() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.25), "0.25");
    }
}

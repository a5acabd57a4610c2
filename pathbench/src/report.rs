//! Metrics, percentiles with their sample counts, and the result line.

use std::fmt::Write as _;

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples strictly beyond the `q` quantile: the support a tail
/// percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A tail percentile needs this many samples beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The value before machine-speed scaling, for timings.
    pub raw: Option<f64>,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Attempted items (clusters for batch, requests for serve) whose
    /// verdicts differ from the oracle.
    pub wrong: u64,
    /// Human-readable reasons the run is incorrect; empty when correct.
    pub errors: Vec<String>,
    /// Extra lines printed before the result (counter listings, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric that is not a timing.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            raw: None,
            samples,
        });
    }

    /// Adds a timing: `raw` as measured, `value` machine-normalized.
    pub fn timing(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        raw: f64,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            raw: Some(raw),
            samples,
        });
    }

    /// Adds the `q` percentile of `(scaled, raw)` latency samples,
    /// failing the run if fewer than [`MIN_BEYOND`] samples lie beyond
    /// a tail percentile.
    pub fn percentile(&mut self, name: &'static str, q: f64, samples: &[(f64, f64)]) {
        let scaled: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let raw: Vec<f64> = samples.iter().map(|s| s.1).collect();
        if q > 0.5 && beyond(samples.len(), q) < MIN_BEYOND {
            self.errors.push(format!(
                "{name}: {} sample(s), fewer than {MIN_BEYOND} beyond p{}",
                samples.len(),
                (q * 100.0).round()
            ));
        }
        self.timing(
            name,
            "ms",
            quantile(&scaled, q),
            quantile(&raw, q),
            samples.len(),
        );
    }

    /// Records a wrong or failed outcome.
    pub fn error(&mut self, e: String) {
        if self.errors.len() < 20 {
            eprintln!("pathbench: {e}");
        }
        self.errors.push(e);
    }

    /// Prints every metric by name with unit, raw value and sample
    /// count, then the one-line JSON result, last on stdout.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            let raw = m.raw.map_or(String::new(), |r| format!("  (raw {r:.6})"));
            println!(
                "metric {:<32} {:>14.6} {:<6} n={}{raw}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for e in self.errors.iter().take(20) {
            println!("error {e}");
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
    }

    #[test]
    fn thin_tail_fails_the_run() {
        let mut r = Report::default();
        let s: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64)).collect();
        r.percentile("x_p90_ms", 0.9, &s);
        assert_eq!(r.errors.len(), 1);
        r.percentile("x_p50_ms", 0.5, &s);
        assert_eq!(r.errors.len(), 1);
    }
}

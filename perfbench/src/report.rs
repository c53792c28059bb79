//! Metric collection and the two output forms: a human-readable table
//! (every metric with its unit, whether it is modeled or host time, and
//! the sample count behind each percentile) and the final JSON line.

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated time or a simulated count: repeats exactly for a seed.
    Modeled,
    /// Wall-clock time or memory on the machine running the benchmark.
    Host,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub source: Source,
    /// Free-form context for the table (sample counts, bases).
    pub note: String,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        self.add_noted(name, value, unit, source, String::new());
    }

    /// Adds a metric with a note for the table.
    pub fn add_noted(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        source: Source,
        note: String,
    ) {
        self.metrics.push(Metric { name, value, unit, source, note });
    }

    /// Prints the table.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics {
            let source = match m.source {
                Source::Modeled => "modeled",
                Source::Host => "host",
            };
            println!("  {:<24} {:>16.6} {:<6} {:<8} {}", m.name, m.value, m.unit, source, m.note);
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile `q` (0..1) of sorted `samples`, with the
/// number of samples strictly beyond it. `None` when fewer than ten
/// samples lie beyond it: such a percentile is not reported.
pub fn percentile(samples: &[u64], q: f64) -> Option<(u64, usize)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= 10).then(|| (samples[rank - 1], beyond))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

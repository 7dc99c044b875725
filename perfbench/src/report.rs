//! Statistics helpers and the result line.

/// Nearest-rank percentile of unsorted samples; 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sum of every sample of a Prometheus series family (`name` or
/// `name{labels}`) in a text exposition.
pub fn prom_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

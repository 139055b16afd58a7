//! Sample statistics, metric naming and the result line.

use std::fmt::Write as _;

/// Percentiles the benchmark can report, lowest first, each with the share
/// of samples beyond it in parts per 100 000 (exact, unlike `1 - p/100`).
const PERCENTILE_LADDER: [(f64, u64); 6] = [
    (50.0, 50_000),
    (90.0, 10_000),
    (99.0, 1_000),
    (99.9, 100),
    (99.99, 10),
    (99.999, 1),
];

/// Samples that must lie beyond a percentile before it is reported as
/// measured rather than extrapolated.
const MIN_BEYOND: u64 = 10;

/// The highest percentile of [`PERCENTILE_LADDER`] with at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|(_, tail)| n as u64 * tail >= MIN_BEYOND * 100_000)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile `p` (0..=100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency sample set: median, p99 and the percentile the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// `(percentile, value)` of the highest percentile with ≥10 samples
    /// beyond it.
    pub top: Option<(f64, f64)>,
}

/// Summarise `samples` (any unit). Returns `None` for an empty set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        p99: percentile(&v, 99.0),
        top: highest_supported_percentile(v.len()).map(|p| (p, percentile(&v, p))),
    })
}

/// Median over consecutive windows of `window` samples of each window's
/// p99 (all samples when there are fewer than two windows). A machine-wide
/// stall of a few hundred milliseconds lifts one window's tail, not the
/// reported figure.
pub fn windowed_p99(samples: &[f64], window: usize) -> f64 {
    if samples.len() < 2 * window {
        return summarize(samples).expect("at least one sample").p99;
    }
    let p99s: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, 99.0)
        })
        .collect();
    median(&p99s)
}

/// Nanosecond latencies with memory that does not grow with the run: one
/// counter per nanosecond below 65 536 ns, rarer slower samples verbatim.
/// Percentiles are exact, as from the sorted samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    exact: usize,
    slow: Vec<f64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; 1 << 16],
            exact: 0,
            slow: Vec::new(),
        }
    }
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => {
                *c += 1;
                self.exact += 1;
            }
            None => self.slow.push(ns as f64),
        }
    }

    pub fn len(&self) -> usize {
        self.exact + self.slow.len()
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.exact += other.exact;
        self.slow.extend_from_slice(&other.slow);
    }

    /// Nearest-rank percentile `p`; the histogram must not be empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        let n = self.len();
        assert!(n > 0, "percentile of no samples");
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        if rank > self.exact {
            self.slow.sort_by(f64::total_cmp);
            return self.slow[rank - self.exact - 1];
        }
        let mut seen = 0usize;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return ns as f64;
            }
        }
        unreachable!("rank {rank} within {} exact samples", self.exact)
    }

    pub fn summary(&mut self) -> Option<Summary> {
        let n = self.len();
        (n > 0).then(|| Summary {
            n,
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            top: highest_supported_percentile(n).map(|p| (p, self.percentile(p))),
        })
    }
}

/// Human-readable line for a latency summary, with its sample count.
pub fn describe(label: &str, unit: &str, s: &Summary) -> String {
    let top = match s.top {
        Some((p, v)) => format!("p{p}={v:.1}{unit}"),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "{label}: n={} p50={:.1}{unit} p99={:.1}{unit} highest supported {top}",
        s.n, s.p50, s.p99
    )
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Errors {
    pub attempted: u64,
    pub failed: u64,
}

impl Errors {
    /// Share of attempted operations that did not fail.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Failed output checks: how many, and the first few in words.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn push(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 3 {
            self.first.push(what);
        }
    }
}

/// Named metrics in insertion order, rendered as the benchmark's last line.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.0.iter().any(|(n, _, _)| *n == name),
            "metric {name} pushed twice"
        );
        self.0.push((name, value, unit));
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    /// Values print with Rust's shortest round-trip formatting, so every
    /// measured digit survives.
    pub fn render(&self, correct: bool, errors: Errors) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            errors.attempted.max(1),
            errors.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.top), (100, Some((90.0, 90.0))));
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        // Three windows of 100; the middle one stalls.
        let mut v: Vec<f64> = (0..300).map(|i| (i % 100) as f64).collect();
        for x in &mut v[100..200] {
            *x += 1_000.0;
        }
        assert_eq!(windowed_p99(&v, 100), 98.0);
        // Too few samples for two windows: the plain p99.
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_p99(&few, 100), 99.0);
    }

    #[test]
    fn histogram_percentiles_match_sorted_samples() {
        let mut rng = crate::rng::Rng::new(3, 4);
        let samples: Vec<u64> = (0..5_000)
            .map(|i| {
                if i % 97 == 0 {
                    70_000 + rng.below(1_000_000)
                } else {
                    rng.below(4_000)
                }
            })
            .collect();
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(s)
            } else {
                b.record(s)
            }
        }
        a.merge(&b);
        let mut sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        sorted.sort_by(f64::total_cmp);
        for p in [0.1, 50.0, 90.0, 98.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), percentile(&sorted, p), "p{p}");
        }
        assert_eq!(a.summary().map(|s| s.n), Some(5_000));
        assert_eq!(Histogram::default().summary(), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "reports_per_s",
            "sim.engine_ms",
            "query.p99-ns",
            "9lives",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            "slash/ed",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"y".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "ratio", "B/report"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per report", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn render_keeps_every_digit_and_key_order() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.2034, "ms");
        m.push("setup_s", 0.812_734_5, "s");
        let line = m.render(
            true,
            Errors {
                attempted: 10,
                failed: 0,
            },
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_metric_is_refused() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("a", 2.0, "s");
    }
}

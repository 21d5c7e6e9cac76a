//! Result assembly: latency distributions, the printed report, host
//! metadata and the final JSON line.

use std::fmt::Write as _;
use std::time::Duration;

/// The percentiles a tail metric may land on, highest first.
const TAIL_PCTS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A sorted latency sample, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut ms: Vec<f64>) -> Dist {
        ms.sort_by(f64::total_cmp);
        Dist { sorted: ms }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile.
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
    }

    pub fn pct(&self, p: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted[self.rank(p) - 1])
    }

    pub fn p50(&self) -> Option<f64> {
        self.pct(50.0)
    }

    /// The highest percentile with at least ten samples above it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        TAIL_PCTS
            .iter()
            .find(|&&p| n - self.rank(p) >= 10)
            .map(|&p| (p, self.sorted[self.rank(p) - 1]))
    }
}

/// Milliseconds of a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty list.
pub fn median(xs: &[f64]) -> f64 {
    Dist::new(xs.to_vec()).p50().unwrap_or(0.0)
}

/// One metric line: name, value, unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, each a reason; any entry fails the run.
    pub errors: Vec<String>,
    /// Metrics of the driver's contract, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further metrics printed for people (per-stream medians and tails).
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// `<prefix>_p50_ms` and, when the sample allows one, the tail
    /// percentile as `<prefix>_tail_ms`, into the printed extras.
    pub fn dist(&mut self, prefix: &str, d: &Dist) {
        let p50 = format!("{prefix}_p50_ms");
        if let (Some(v), false) = (d.p50(), self.metrics.iter().any(|m| m.name == p50)) {
            self.extra(&p50, v, "ms", Some(d.len()));
        }
        if let Some((p, v)) = d.tail() {
            self.extra(&format!("{prefix}_tail_ms"), v, "ms", Some(d.len()));
            self.extra(&format!("{prefix}_tail_pct"), p, "pct", Some(d.len()));
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn fmt_metric(m: &Metric) -> String {
    match m.samples {
        Some(n) => format!("{:<32} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
        None => format!("{:<32} {:>14.4} {}", m.name, m.value, m.unit),
    }
}

/// Host facts printed with every result.
pub fn host_lines(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]);
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit}\n\
         run: workload={workload} seed={seed} trace={}\n",
        trace as u8
    )
}

/// First line of a command's output, or `unknown` (the checkout the
/// benchmark runs in need not be a git repository).
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The printed report followed by the one-line JSON result.
pub fn render(o: &Outcome) -> String {
    let mut out = String::new();
    for m in &o.metrics {
        let _ = writeln!(out, "{}", fmt_metric(m));
    }
    for m in &o.extra {
        let _ = writeln!(out, "  {}", fmt_metric(m));
    }
    let _ = writeln!(
        out,
        "attempted={} failed={} failed_pct={:.4}",
        o.attempted,
        o.failed,
        o.failed_pct()
    );
    for e in &o.errors {
        let _ = writeln!(out, "FAILED CHECK: {e}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    out.push_str(&json);
    out.push('\n');
    out
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! The result line, the metric catalogue and the host facts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "1/s"),
    ("us_per_item_p50", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "1"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("spatial.grid_build_ms", "ms"),
    ("grow.ms", "ms"),
    ("grow.discoveries_per_node", "count"),
    ("grow.boundary_share", "1"),
    ("shrink_back.ms", "ms"),
    ("shrink_back.dropped_per_node", "count"),
    ("closure.ms", "ms"),
    ("closure.edges", "count"),
    ("pairwise.ms", "ms"),
    ("pairwise.removed_share", "1"),
    ("par.fan_outs_per_item", "count"),
    ("par.planned_threads", "count"),
    ("par.busy_share", "1"),
    ("par.chunks_p50", "count"),
    ("par.speedup_vs_cap1", "x"),
    ("apply.us_p50", "us"),
    ("apply.us_p99", "us"),
    ("apply.regrown_per_event", "count"),
    ("apply.grid_scan_share", "1"),
    ("apply.edges_changed_per_event", "count"),
    ("apply.noop_share", "1"),
    ("admit.us_per_event", "us"),
    ("admit.batch_size_p50", "count"),
    ("admit.conflict_cuts", "count"),
    ("lifetime.traffic_ms", "ms"),
    ("lifetime.standby_ms", "ms"),
    ("lifetime.reconfig_ms", "ms"),
    ("lifetime.partition_ms", "ms"),
    ("lifetime.death_epoch_share", "1"),
    ("lifetime.dropped_share", "1"),
    ("trace.overhead", "1"),
];

/// Set-up builds per run, at least.
const SETUP_MIN_BUILDS: usize = 3;
/// Wall time the set-up builds of a run span, at least. Builds that span
/// well under a second can all fall into one burst of other tenants'
/// load: fifteen 30 ms lifetime builds per run gave a `setup_s` median
/// that moved 27 % between two ten-run sets.
const SETUP_MIN_S: f64 = 4.0;

/// Median wall time of identical set-up builds, in seconds, and the last
/// build (the one the run goes on with). It builds at least
/// [`SETUP_MIN_BUILDS`] times and until the builds span
/// [`SETUP_MIN_S`], so every workload's median samples the host for
/// seconds, not for one burst.
pub fn median_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_BUILDS || times.iter().sum::<f64>() < SETUP_MIN_S {
        // Drop the previous build first so every build starts from the
        // same heap state.
        drop(last.take());
        let t = Instant::now();
        last = Some(std::hint::black_box(build()));
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one build"))
}

/// A slice of a timed window, summarised when it closes: items
/// completed, the slice's wall time and the slice's latency percentiles
/// (µs). Only the summary is kept, so memory does not grow with the
/// window or with the program's speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub items: u64,
    pub wall_s: f64,
    pub p50_us: f64,
    /// `None` when fewer than ten samples lie beyond the p99.
    pub p99_us: Option<f64>,
}

impl Slice {
    /// Summarises a slice from one latency sample (µs) per item. A
    /// slice cut short by a panic may have no samples; its p50 is then
    /// NaN, which makes the run incorrect.
    pub fn new(items: u64, wall_s: f64, mut latency_us: Vec<f64>) -> Slice {
        latency_us.sort_by(f64::total_cmp);
        let p50_us = if latency_us.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&latency_us, 0.5)
        };
        Slice {
            items,
            wall_s,
            p50_us,
            p99_us: stats::p99(&latency_us),
        }
    }
}

/// A timed window, cut into slices (a construction, about a second of
/// commits, a simulation). Every timing is the median over slices, so a
/// burst of contention from other tenants of the host moves one slice,
/// not the result.
#[derive(Debug, Default)]
pub struct Window {
    pub slices: Vec<Slice>,
}

impl Window {
    pub fn items(&self) -> u64 {
        self.slices.iter().map(|s| s.items).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Median over slices of items ÷ slice wall time.
    pub fn items_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.items as f64 / s.wall_s.max(f64::MIN_POSITIVE))
            .collect();
        stats::median(&rates)
    }

    /// Median over slices of the slice p50.
    pub fn p50_us(&self) -> f64 {
        let p50s: Vec<f64> = self.slices.iter().map(|s| s.p50_us).collect();
        stats::median(&p50s)
    }

    /// Median over slices of the slice p99, when every slice has one.
    pub fn p99_us(&self) -> Option<f64> {
        let p99s: Option<Vec<f64>> = self.slices.iter().map(|s| s.p99_us).collect();
        p99s.map(|v| stats::median(&v))
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; `main` checks the set is complete.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts printed on the line before the result (sample counts,
    /// workload sizes, check verdicts).
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Fills the end-to-end metrics from a measured window.
    pub fn end_to_end(&mut self, setup_s: f64, window: &Window) {
        self.metrics.insert("items_per_s", window.items_per_s());
        self.metrics.insert("us_per_item_p50", window.p50_us());
        // The p99 is printed as a fact, not gated: on the tuning host the
        // serve-batched p99 of identical code moved by a third between two
        // ten-run sets, more than any bound allows. It is `null` where a
        // slice has fewer than ten samples beyond it; a construction is one
        // sample, so construct never has one.
        self.info.push((
            "us_per_item_p99",
            window.p99_us().map_or("null".to_owned(), json_num),
        ));
        self.info.push((
            "mean_items_per_s",
            (window.items() as f64 / window.wall_s()).to_string(),
        ));
        self.info.push(("slices", window.slices.len().to_string()));
        self.metrics.insert("setup_s", setup_s);
        self.metrics.insert("peak_rss_mb", peak_rss_mb());
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.insert("ops_ok_frac", ok);
    }

    /// Counts `items` attempted, `failed` of them failed.
    pub fn count(&mut self, items: u64, failed: bool) {
        self.attempted += items;
        if failed {
            self.failed += items;
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `"unknown"` when the checkout is not a git repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// print as `null` so the result line stays valid JSON.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `catalogue`, each with its unit.
pub fn result_line(
    correct: bool,
    outcome: &Outcome,
    catalogue: &[(&'static str, &'static str)],
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues here and in `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn catalogues_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let count = compact.matches("\"unit\":").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_is_flat_json_with_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.insert("items_per_s", 2.5);
        let line = result_line(true, &o, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"items_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn window_timings_are_medians_over_slices() {
        let slice =
            |items: u64, wall_s: f64, lat: f64, n: usize| Slice::new(items, wall_s, vec![lat; n]);
        let w = Window {
            slices: vec![
                slice(100, 1.0, 5.0, 1000),
                slice(300, 1.0, 1.0, 1000),
                slice(200, 1.0, 3.0, 1000),
            ],
        };
        assert_eq!(w.items(), 600);
        assert_eq!(w.items_per_s(), 200.0);
        assert_eq!(w.p50_us(), 3.0);
        assert_eq!(w.p99_us(), Some(3.0));
        // One slice without a supported p99 leaves the window without one.
        let mut short = w;
        short.slices.push(slice(10, 1.0, 9.0, 5));
        assert_eq!(short.p99_us(), None);
    }

    #[test]
    fn failures_count_whole_items() {
        let mut o = Outcome::default();
        o.count(10, false);
        o.count(5, true);
        assert_eq!((o.attempted, o.failed), (15, 5));
    }
}

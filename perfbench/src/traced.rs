//! Shared pieces of the traced runs.
//!
//! A traced run measures three windows on the same inputs, interleaved
//! round by round: untraced, traced (spans plus the program's exported
//! metrics), and untraced under `parallel::set_thread_cap(Some(1))`.
//! `trace.overhead` and `par.speedup_vs_cap1` compare them.

use std::fs;
use std::io::{BufWriter, Write};
use std::time::Instant;

use cbtc_core::parallel;
use cbtc_metrics::{MetricsRegistry, MetricsSnapshot};

use crate::report::{Outcome, Slice, Window};
use crate::spans::Tracer;
use crate::Args;

/// Runs `f` with every fan-out capped at one thread.
pub fn pinned<T>(f: impl FnOnce() -> T) -> T {
    parallel::set_thread_cap(Some(1));
    let out = f();
    parallel::set_thread_cap(None);
    out
}

/// Fills the `par.*` metrics from a fan-out snapshot. `fan_out_wall_s`
/// is the wall time of the spans the fan-outs ran in: busy share is
/// worker busy time ÷ (that wall × planned threads).
pub fn par_layer(out: &mut Outcome, snap: &MetricsSnapshot, items: u64, fan_out_wall_s: f64) {
    let fan_outs = snap.counter("par.fan_outs").unwrap_or(0);
    let planned = match fan_outs {
        0 => 1.0,
        _ => snap.gauge("par.planned_threads").unwrap_or(1.0),
    };
    let busy_ns = snap.histogram("par.worker_busy_nanos").map_or(0, |h| h.sum);
    let chunks_p50 = snap
        .histogram("par.worker_chunks")
        .filter(|h| h.count > 0)
        .map_or(0, |h| h.to_histogram().p50());
    let m = &mut out.metrics;
    m.insert(
        "par.fan_outs_per_item",
        fan_outs as f64 / items.max(1) as f64,
    );
    m.insert("par.planned_threads", planned);
    let capacity_ns = fan_out_wall_s * 1e9 * planned;
    let busy_share = if fan_outs > 0 && capacity_ns > 0.0 {
        busy_ns as f64 / capacity_ns
    } else {
        0.0
    };
    m.insert("par.busy_share", busy_share);
    m.insert("par.chunks_p50", chunks_p50 as f64);
}

/// Which of a round's three slices is being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Traced,
    Pinned,
}

/// The three windows of a traced run, measured in interleaved rounds so
/// that a change in the host's speed during the run reaches all three
/// alike. Within a round the three slices see the same inputs where the
/// workload allows it.
#[derive(Default)]
pub struct Rounds {
    pub untraced: Window,
    pub traced: Window,
    pub pinned: Window,
    /// The `par.*` series of the traced slices.
    pub par: MetricsSnapshot,
}

impl Rounds {
    /// Measures rounds of untraced, traced (fan-out metrics installed)
    /// and pinned slices until `seconds` of wall time pass.
    pub fn measure(seconds: f64, mut slice: impl FnMut(Mode) -> Slice) -> Rounds {
        let mut rounds = Rounds::default();
        let start = Instant::now();
        while rounds.untraced.slices.is_empty() || start.elapsed().as_secs_f64() < seconds {
            rounds.untraced.slices.push(slice(Mode::Untraced));
            let registry = MetricsRegistry::enabled();
            parallel::install_metrics(&registry);
            rounds.traced.slices.push(slice(Mode::Traced));
            parallel::uninstall_metrics();
            rounds.par.merge(&registry.snapshot());
            rounds.pinned.slices.push(pinned(|| slice(Mode::Pinned)));
        }
        rounds
    }

    /// Fills `trace.overhead` and `par.speedup_vs_cap1`.
    pub fn compare(&self, out: &mut Outcome) {
        let untraced = self.untraced.items_per_s();
        let traced = self.traced.items_per_s();
        let pinned = self.pinned.items_per_s();
        out.metrics
            .insert("trace.overhead", 1.0 - traced / untraced);
        out.metrics.insert("par.speedup_vs_cap1", untraced / pinned);
        out.info
            .push(("rounds", self.untraced.slices.len().to_string()));
        out.info
            .push(("untraced_items_per_s", untraced.to_string()));
        out.info.push(("traced_items_per_s", traced.to_string()));
        out.info.push(("cap1_items_per_s", pinned.to_string()));
    }
}

/// Writes the spans to `.bench_out/spans-<workload>-<seed>.jsonl` and a
/// per-span self-time summary to standard error.
pub fn write_spans(tracer: &Tracer, args: &Args, workload: &str) {
    for (name, (count, total, own)) in tracer.summary() {
        eprintln!(
            "span {name:<22} n={count:<7} total_ms={:<10.3} self_ms={:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let path = format!(".bench_out/spans-{workload}-{}.jsonl", args.seed);
    let written = fs::create_dir_all(".bench_out")
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            tracer.write_jsonl(&mut w)?;
            w.flush()
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

//! `serve-single` and `serve-batched`: `cbtc serve`'s default stream
//! (10k slots at mean degree ≈ 18, 5 % standby, 90/5/5 move/join/death,
//! max step 50) driven straight into `DeltaTopology::apply`.
//!
//! serve-single commits one event at a time under basic `CBTC(5π/6)`;
//! serve-batched commits up to 16 events under `all_applicable(5π/6)`.
//! An item is an event, charged its commit's latency.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cbtc_core::parallel;
use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, NodeEvent};
use cbtc_core::CbtcConfig;
use cbtc_geom::Alpha;
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_workloads::{RandomPlacement, ServiceConfig};

use crate::report::{median_setup, Outcome, Slice, Window};
use crate::spans::Tracer;
use crate::stream::{initial_active, Admission, EventGen};
use crate::traced::{par_layer, write_spans, Mode, Rounds};
use crate::{stats, verify, Args, Workload};

const SLOTS: usize = 10_000;
/// A slice of a timed window closes once it has run this long and holds
/// at least [`SLICE_COMMITS`] commits.
const SLICE_S: f64 = 1.0;
/// Commits per slice, at least: an event is charged its commit's
/// latency, so the samples beyond a slice's p99 are only independent per
/// commit, and 1000 commits put at least ten beyond it. A serve-batched
/// commit carries up to 16 events, so by time alone a second would hold
/// about 550 commits and six beyond.
const SLICE_COMMITS: usize = 1_000;
/// Events applied untimed at the end of each set-up build.
const WARMUP_EVENTS: u64 = 2_000;

type Engine = DeltaTopology<GeometricMetric>;

struct Served {
    config: CbtcConfig,
    engine: Engine,
    gen: EventGen,
    admission: Admission,
    commit: Vec<NodeEvent>,
    /// Set once an `apply` panicked: the engine state is then suspect
    /// and every later window fails.
    broken: bool,
}

/// Set-up: the seeded layout, `DeltaTopology::new` over it, and the
/// untimed warm-up commits. `setup_s` is the median build time; the
/// last build is the one the run goes on with.
fn build(args: &Args) -> (f64, Served) {
    let service = ServiceConfig::sized(SLOTS, 0);
    let (config, cap) = match args.workload {
        Workload::ServeBatched => (CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS), 16),
        _ => (CbtcConfig::new(Alpha::FIVE_PI_SIXTHS), 1),
    };
    let range = PowerLaw::paper_default().max_range();
    median_setup(|| {
        let layout = RandomPlacement::new(SLOTS, service.width, service.height, range)
            .generate_layout(args.seed);
        let gen = EventGen::new(&service, &layout, args.seed);
        let engine = DeltaTopology::new(
            layout,
            initial_active(&service),
            range,
            config,
            false,
            GeometricMetric,
        );
        let mut served = Served {
            config,
            engine,
            gen,
            admission: Admission::new(cap),
            commit: Vec::with_capacity(cap),
            broken: false,
        };
        let mut warm = 0;
        while warm < WARMUP_EVENTS {
            served
                .admission
                .next_commit(&mut served.gen, &mut served.commit);
            served.engine.apply(&served.commit);
            warm += served.commit.len() as u64;
        }
        served
    })
}

/// What `apply` reported, summed over the commits of a slice.
#[derive(Default)]
struct ApplyStats {
    events: u64,
    commits: u64,
    regrown: u64,
    grid_scans: u64,
    edges_changed: u64,
    noops: u64,
    sizes: Vec<f64>,
}

impl Served {
    /// Commits until the slice holds [`SLICE_S`] of wall time and
    /// [`SLICE_COMMITS`] commits. With a tracer, each commit is a run
    /// with `admit` and `apply` spans under a `commit` span.
    fn slice(&mut self, mut tracer: Option<&mut Tracer>, seen: &mut ApplyStats) -> Slice {
        // (commit latency µs, events) per commit.
        let mut commits: Vec<(f64, usize)> = Vec::new();
        let start = Instant::now();
        while !self.broken
            && (commits.len() < SLICE_COMMITS || start.elapsed().as_secs_f64() < SLICE_S)
        {
            let open = tracer.as_deref_mut().map(|t| {
                t.next_run();
                (t.enter("commit"), t.enter("admit"))
            });
            self.admission.next_commit(&mut self.gen, &mut self.commit);
            let open = open.map(|(commit, admit)| {
                let t = tracer.as_deref_mut().expect("open span has a tracer");
                t.exit(admit);
                (commit, t.enter("apply"))
            });
            let t0 = Instant::now();
            let applied = catch_unwind(AssertUnwindSafe(|| self.engine.apply(&self.commit)));
            let nanos = t0.elapsed().as_nanos() as f64;
            if let (Some(t), Some((commit, apply))) = (tracer.as_deref_mut(), open) {
                t.exit(apply);
                t.exit(commit);
            }
            let size = self.commit.len();
            match applied {
                Ok(delta) => {
                    seen.events += size as u64;
                    seen.commits += 1;
                    seen.regrown += self.engine.last_regrown() as u64;
                    seen.grid_scans += self.engine.last_grid_scans() as u64;
                    seen.edges_changed += (delta.added.len() + delta.removed.len()) as u64;
                    seen.noops += u64::from(delta.is_empty());
                    seen.sizes.push(size as f64);
                }
                Err(_) => self.broken = true,
            }
            commits.push((nanos / 1e3, size));
        }
        Slice::new(
            commits.iter().map(|c| c.1 as u64).sum(),
            start.elapsed().as_secs_f64(),
            stats::weighted(&commits),
        )
    }

    /// The maintained graph must equal a from-scratch construction over
    /// the final positions and membership.
    fn matches_scratch(&self) -> bool {
        !self.broken
            && verify::matches_scratch(
                self.engine.graph(),
                self.engine.layout(),
                self.engine.active(),
                &self.config,
            )
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.workload == Workload::ServeBatched {
        // A commit waits for every worker of its fan-out, so on a shared
        // host a stall of either core stalls the commit: over minutes the
        // two-core rate moved 3.4k–9.1k events/s while the pinned rate
        // held. The end-to-end run is pinned (and reports one planned
        // thread); the traced run compares the fan-out path with it
        // (`par.speedup_vs_cap1`). The cap stays until the process exits.
        parallel::set_thread_cap(Some(1));
    }
    let mut out = Outcome::default();
    let (setup_s, mut served) = build(args);
    let mut window = Window::default();
    while window.slices.is_empty() || window.wall_s() < args.seconds {
        let slice = served.slice(None, &mut ApplyStats::default());
        window.slices.push(slice);
    }
    let ok = served.matches_scratch();
    out.count(window.items(), !ok);
    out.info.push(("matches_scratch", ok.to_string()));
    out.info.push(("slots", SLOTS.to_string()));
    out.end_to_end(setup_s, &window);
    out
}

pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (_, mut served) = build(args);
    let mut tracer = Tracer::new();
    let mut seen = ApplyStats::default();
    let mut traced_cuts = 0;
    let rounds = Rounds::measure(args.seconds, |mode| {
        if mode != Mode::Traced {
            return served.slice(None, &mut ApplyStats::default());
        }
        let before = served.admission.conflict_cuts;
        let slice = served.slice(Some(&mut tracer), &mut seen);
        traced_cuts += served.admission.conflict_cuts - before;
        slice
    });
    let ok = served.matches_scratch();
    let windows = [&rounds.untraced, &rounds.traced, &rounds.pinned];
    out.count(windows.iter().map(|w| w.items()).sum(), !ok);
    out.info.push(("matches_scratch", ok.to_string()));

    let events = seen.events.max(1) as f64;
    let apply = stats::sorted(&tracer.durations_us("apply"));
    let m = &mut out.metrics;
    m.insert("apply.us_p50", stats::percentile(&apply, 0.5));
    m.insert("apply.us_p99", stats::percentile(&apply, 0.99));
    m.insert("apply.regrown_per_event", seen.regrown as f64 / events);
    m.insert(
        "apply.grid_scan_share",
        seen.grid_scans as f64 / seen.regrown.max(1) as f64,
    );
    m.insert(
        "apply.edges_changed_per_event",
        seen.edges_changed as f64 / events,
    );
    m.insert(
        "apply.noop_share",
        seen.noops as f64 / seen.commits.max(1) as f64,
    );
    m.insert(
        "admit.us_per_event",
        tracer.total_ms("admit") * 1e3 / events,
    );
    m.insert("admit.batch_size_p50", stats::median(&seen.sizes));
    m.insert("admit.conflict_cuts", traced_cuts as f64);
    let apply_wall_s = tracer.total_ms("apply") / 1e3;
    par_layer(&mut out, &rounds.par, seen.events, apply_wall_s);
    rounds.compare(&mut out);
    out.info.push(("commits", seen.commits.to_string()));
    write_spans(&tracer, args, args.workload.name());
    out
}
